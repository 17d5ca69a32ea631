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

from dataclasses import dataclass, replace

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
from .errors import POSITIVE, bounded, check_fields, check_range

SIGN_BITS = 1
EXPONENT_BITS = 8
MANTISSA_BITS = 23
WORD_BITS = SIGN_BITS + EXPONENT_BITS + MANTISSA_BITS


@dataclass(frozen=True)
class SystemEnergyConfig:
    """Reference system constants; every value is an explicit modeling input."""

    dram_energy_per_access_nj: float = bounded(POSITIVE, default=10.0)  # per 64 B burst
    dram_latency_ns: float = bounded(POSITIVE, default=50.0)
    mac_energy_pj: float = bounded(POSITIVE, default=2.0)
    clock_ghz: float = bounded(POSITIVE, default=1.0)  # the only clock the models read
    dram_burst_elements: int = bounded(1, default=16, integer=True)

    __post_init__ = check_fields


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

    def as_dict(self) -> dict:
        """The report keys, each the name of the field or property it reads; the
        CLI's system-compare writer reads a report's numbers by these names."""
        return {"dram_nj": self.dram_nj, "onchip_nj": self.onchip_nj,
                "leakage_nj": self.leakage_nj, "compute_nj": self.compute_nj,
                "total_nj": self.total_nj, "time_ns": self.time_ns}


@dataclass(frozen=True)
class EnergyReport(PhaseEnergy):
    """One iteration: each component is the sum of its per-phase values."""

    per_phase: dict[Phase, PhaseEnergy]

    def as_dict(self) -> dict:
        return {**super().as_dict(), "per_phase": {
            phase.value: pe.as_dict() for phase, pe in self.per_phase.items()}}


_PHASES = tuple(Phase)


def estimate_energy(trace: AccessTrace, act: ArrayMetrics, wt: ArrayMetrics,
                    err: ArrayMetrics, sys: SystemEnergyConfig) -> EnergyReport:
    """Energy and serialized-time report for one iteration's trace.

    Reads the trace's per-(phase, store) totals and per-phase compute; a key
    the trace lacks counts as zero.
    """
    buffers = [(store, m.read_energy_pj, m.write_energy_pj, m.read_latency_ns,
                m.write_latency_ns) for store, m in
               ((Store.ACTIVATION, act), (Store.WEIGHT, wt), (Store.ERROR, err))]
    leak_mw = act.leakage_mw + wt.leakage_mw + err.leakage_mw
    totals, compute = trace.totals, trace.phase_compute
    burst, access_nj = sys.dram_burst_elements, sys.dram_energy_per_access_nj
    dram_latency_ns, clock_ghz, mac_pj = sys.dram_latency_ns, sys.clock_ghz, sys.mac_energy_pj
    per_phase: dict[Phase, PhaseEnergy] = {}
    rows = []  # (dram_nj, onchip_nj, leakage_nj, compute_nj, time_ns) per phase
    for phase in _PHASES:
        reads, writes = totals.get((phase, Store.DRAM), (0, 0))
        dram_accesses = (reads + writes) / burst
        macs, cycles = compute.get(phase, (0, 0))
        onchip_pj = 0.0
        time_ns = cycles / clock_ghz + dram_accesses * dram_latency_ns
        for store, read_pj, write_pj, read_ns, write_ns in buffers:
            reads, writes = totals.get((phase, store), (0, 0))
            onchip_pj += reads * read_pj
            onchip_pj += writes * write_pj
            time_ns += reads * read_ns
            time_ns += writes * write_ns
        rows.append((dram_accesses * access_nj, onchip_pj / 1e3,
                     leak_mw * time_ns / 1e3,  # mW * ns = pJ
                     macs * mac_pj / 1e3, time_ns))
        per_phase[phase] = PhaseEnergy(*rows[-1])
    # each component summed over the phases in order
    return EnergyReport(*map(sum, zip(*rows)), per_phase)


@dataclass(frozen=True)
class ComparisonPoint:
    """Energy comparison of two technologies at one sweep point."""

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
    return ComparisonPoint(capacity_kb, capacity_kb, reports[0], reports[1], dram, dram)


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
    return ComparisonPoint(caps[0], caps[1], reports[0], reports[1], drams[0], drams[1])


@dataclass(frozen=True)
class SegmentMap:
    """binary32 bit segments mapped to (possibly different) write modes."""

    sign: MemoryTechnology
    exponent: MemoryTechnology
    mantissa: MemoryTechnology
    mantissa_bits_on_optimized: int = bounded(0, MANTISSA_BITS + 1, default=MANTISSA_BITS,
                                              integer=True)

    __post_init__ = check_fields

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
    check_range("base_bit_energy_pj", base_bit_energy_pj, POSITIVE)
    factor = seg.word_energy_factor()
    per_word = WORD_BITS * base_bit_energy_pj * factor
    return HeteroWriteResult(per_word, factor, 1.0 / factor)
