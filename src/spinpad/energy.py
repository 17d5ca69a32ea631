"""System training-energy estimation on top of an access trace.

Energy splits into four components: DRAM traffic, on-chip scratchpad
accesses, scratchpad leakage integrated over the fully serialized iteration
time, and MAC compute. Each component partitions cleanly by training phase,
so the per-phase breakdown sums exactly to the totals.

Two comparison regimes mirror the design-space questions the models answer:
iso-capacity (both technologies get the same buffer capacity, hence the same
access trace) and iso-area (each technology first converts the area budget
into its own capacity, so the traces differ too). A sweep passes one memo to
every point, which keeps the last trace of each side and reuses it while the
capacities stay inside the trace's decision ranges (see dataflow), so a sweep
builds one trace per decision range it passes through, not one per point. A
point the memo serves builds no config and reads the trace's stored DRAM total.

The heterogeneous write-energy model splits a binary32 word into sign /
exponent / mantissa segments stored on arrays with different write operating
points; mantissa bits outside the optimized span ride with the exponent
segment's array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .arraymodel import (
    ArrayMetrics,
    CalibrationTable,
    MemoryTechnology,
    capacity_at_area,
    metrics_at_capacity,
)
from .dataflow import (
    AcceleratorConfig,
    AccessTrace,
    LayerSpec,
    Phase,
    Store,
    simulate_iteration,
)
from .errors import POSITIVE, InvalidParameterError, check_int, check_range

SIGN_BITS = 1
EXPONENT_BITS = 8
MANTISSA_BITS = 23
WORD_BITS = SIGN_BITS + EXPONENT_BITS + MANTISSA_BITS


@dataclass(frozen=True)
class SystemEnergyConfig:
    """Reference system constants; every value is an explicit modeling input."""

    dram_energy_per_access_nj: float = 10.0  # per burst-sized (64 B) access
    dram_latency_ns: float = 50.0
    mac_energy_pj: float = 2.0
    clock_ghz: float = 1.0  # the accelerator clock, the only one the models read
    dram_burst_elements: int = 16

    def __post_init__(self) -> None:
        for name in ("dram_energy_per_access_nj", "dram_latency_ns",
                     "mac_energy_pj", "clock_ghz"):
            check_range(name, getattr(self, name), POSITIVE)
        check_int("dram_burst_elements", self.dram_burst_elements)
        check_range("dram_burst_elements", self.dram_burst_elements, 1)


@dataclass(frozen=True)
class PhaseEnergy:
    dram_nj: float
    onchip_nj: float
    leakage_nj: float
    compute_nj: float
    time_ns: float

    @property
    def total_nj(self) -> float:
        return self.dram_nj + self.onchip_nj + self.leakage_nj + self.compute_nj


@dataclass(frozen=True)
class EnergyReport:
    dram_nj: float
    onchip_nj: float
    leakage_nj: float
    compute_nj: float
    total_nj: float
    time_ns: float
    per_phase: dict[Phase, PhaseEnergy] = field(default_factory=dict)

    def components(self) -> dict[str, float]:
        return {
            "dram_nj": self.dram_nj,
            "onchip_nj": self.onchip_nj,
            "leakage_nj": self.leakage_nj,
            "compute_nj": self.compute_nj,
        }

    def as_dict(self) -> dict:
        out = dict(self.components())
        out["total_nj"] = self.total_nj
        out["time_ns"] = self.time_ns
        out["per_phase"] = {
            phase.value: {
                "dram_nj": pe.dram_nj,
                "onchip_nj": pe.onchip_nj,
                "leakage_nj": pe.leakage_nj,
                "compute_nj": pe.compute_nj,
                "total_nj": pe.total_nj,
                "time_ns": pe.time_ns,
            }
            for phase, pe in self.per_phase.items()
        }
        return out


def estimate_energy(trace: AccessTrace, act: ArrayMetrics, wt: ArrayMetrics,
                    err: ArrayMetrics, sys: SystemEnergyConfig) -> EnergyReport:
    """Energy and serialized-time report for one iteration's trace.

    Reads the trace's per-(phase, store) and per-phase totals, not its per-key record.
    """
    buffers = ((Store.ACTIVATION, act), (Store.WEIGHT, wt), (Store.ERROR, err))
    leak_mw = act.leakage_mw + wt.leakage_mw + err.leakage_mw
    per_phase: dict[Phase, PhaseEnergy] = {}
    for phase in Phase:
        dram_elems = (trace.phase_reads(phase, Store.DRAM)
                      + trace.phase_writes(phase, Store.DRAM))
        dram_accesses = dram_elems / sys.dram_burst_elements
        dram_nj = dram_accesses * sys.dram_energy_per_access_nj
        onchip_pj = 0.0
        time_ns = trace.phase_cycles(phase) / sys.clock_ghz
        time_ns += dram_accesses * sys.dram_latency_ns
        for store, metrics in buffers:
            reads = trace.phase_reads(phase, store)
            writes = trace.phase_writes(phase, store)
            onchip_pj += reads * metrics.read_energy_pj
            onchip_pj += writes * metrics.write_energy_pj
            time_ns += reads * metrics.read_latency_ns
            time_ns += writes * metrics.write_latency_ns
        compute_nj = trace.phase_macs(phase) * sys.mac_energy_pj / 1e3
        leakage_nj = leak_mw * time_ns / 1e3  # mW * ns = pJ
        per_phase[phase] = PhaseEnergy(dram_nj, onchip_pj / 1e3, leakage_nj,
                                       compute_nj, time_ns)
    total = PhaseEnergy(
        sum(p.dram_nj for p in per_phase.values()),
        sum(p.onchip_nj for p in per_phase.values()),
        sum(p.leakage_nj for p in per_phase.values()),
        sum(p.compute_nj for p in per_phase.values()),
        sum(p.time_ns for p in per_phase.values()),
    )
    return EnergyReport(total.dram_nj, total.onchip_nj, total.leakage_nj,
                        total.compute_nj, total.total_nj, total.time_ns,
                        per_phase)


@dataclass(frozen=True)
class ComparisonPoint:
    """Energy comparison of two technologies at one sweep point."""

    mode: str  # "iso_capacity" or "iso_area"
    sweep_value: float
    tech_a: MemoryTechnology
    tech_b: MemoryTechnology
    capacity_a_kb: float
    capacity_b_kb: float
    report_a: EnergyReport
    report_b: EnergyReport
    dram_elements_a: int
    dram_elements_b: int

    @property
    def improvement(self) -> float:
        return self.report_a.total_nj / self.report_b.total_nj


def _buffered(cfg: AcceleratorConfig, capacity_kb: float) -> AcceleratorConfig:
    return replace(cfg, activation_buffer_kb=capacity_kb,
                   weight_buffer_kb=capacity_kb, error_buffer_kb=capacity_kb)


def _trace(workload: list[LayerSpec], cfg: AcceleratorConfig, capacity_kb: float,
           memo: dict | None, side: int) -> AccessTrace:
    """simulate_iteration with capacity_kb in every buffer, or the memo's last
    trace of this side when the workload and accelerator are the same and the
    capacity lies in each of the trace's ranges. The memo is a dict that one
    sweep creates and passes to each of its points; a hit builds no config."""
    key = (tuple(workload), cfg)
    last = memo and memo.get(side)
    # buffer_bytes truncates kb * 1024 and the ranges have integer ends, so the
    # untruncated bytes lie in the same ranges; NaN lies in none
    if last and last[0] == key and capacity_kb > 0 and all(
            lo <= capacity_kb * 1024 < hi for lo, hi in last[1].capacity_range.values()):
        return last[1]
    trace = simulate_iteration(workload, _buffered(cfg, capacity_kb))
    if memo is not None:
        memo[side] = (key, trace)
    return trace


def compare_iso_capacity(
    workload: list[LayerSpec], cfg: AcceleratorConfig, capacity_kb: float,
    tech_a: MemoryTechnology, tech_b: MemoryTechnology,
    table: CalibrationTable | None = None,
    sys: SystemEnergyConfig | None = None, memo: dict | None = None,
) -> ComparisonPoint:
    """Same per-buffer capacity for both technologies: one shared trace."""
    table = table or CalibrationTable()
    sys = sys or SystemEnergyConfig()
    trace = _trace(workload, cfg, capacity_kb, memo, 0)
    reports = []
    for tech in (tech_a, tech_b):
        m = metrics_at_capacity(table, tech, capacity_kb)
        reports.append(estimate_energy(trace, m, m, m, sys))
    dram = trace.dram_elements()
    return ComparisonPoint("iso_capacity", capacity_kb, tech_a, tech_b,
                           capacity_kb, capacity_kb, reports[0], reports[1],
                           dram, dram)


def compare_iso_area(
    workload: list[LayerSpec], cfg: AcceleratorConfig, area_mm2: float,
    tech_a: MemoryTechnology, tech_b: MemoryTechnology,
    table: CalibrationTable | None = None,
    sys: SystemEnergyConfig | None = None, memo: dict | None = None,
) -> ComparisonPoint:
    """Equal silicon budget: each technology resolves its own capacity."""
    table = table or CalibrationTable()
    sys = sys or SystemEnergyConfig()
    caps, reports, drams = [], [], []
    for side, tech in enumerate((tech_a, tech_b)):
        cap = capacity_at_area(table, tech, area_mm2)
        trace = _trace(workload, cfg, cap, memo, side)
        m = metrics_at_capacity(table, tech, cap)
        caps.append(cap)
        reports.append(estimate_energy(trace, m, m, m, sys))
        drams.append(trace.dram_elements())
    return ComparisonPoint("iso_area", area_mm2, tech_a, tech_b,
                           caps[0], caps[1], reports[0], reports[1],
                           drams[0], drams[1])


@dataclass(frozen=True)
class SegmentMap:
    """binary32 bit segments mapped to (possibly different) write modes."""

    sign: MemoryTechnology
    exponent: MemoryTechnology
    mantissa: MemoryTechnology
    mantissa_bits_on_optimized: int = MANTISSA_BITS

    def __post_init__(self) -> None:
        if not 0 <= self.mantissa_bits_on_optimized <= MANTISSA_BITS:
            raise InvalidParameterError(
                f"mantissa_bits_on_optimized must be in [0, {MANTISSA_BITS}]"
            )

    def word_energy_factor(self) -> float:
        """Per-word write-energy factor relative to an all-base-mode word."""
        n = self.mantissa_bits_on_optimized
        weighted = (SIGN_BITS * self.sign.write_energy_factor
                    + (EXPONENT_BITS + MANTISSA_BITS - n)
                    * self.exponent.write_energy_factor
                    + n * self.mantissa.write_energy_factor)
        return weighted / WORD_BITS


@dataclass(frozen=True)
class HeteroWriteResult:
    per_word_energy_pj: float
    word_energy_factor: float
    improvement: float


def hetero_write_energy(seg: SegmentMap, base_bit_energy_pj: float) -> HeteroWriteResult:
    """Per-word write energy of a segment mapping vs an all-base word."""
    if base_bit_energy_pj <= 0:
        raise InvalidParameterError("base_bit_energy_pj must be positive")
    factor = seg.word_energy_factor()
    per_word = WORD_BITS * base_bit_energy_pj * factor
    return HeteroWriteResult(per_word, factor, 1.0 / factor)
