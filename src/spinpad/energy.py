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

Counts are priced apart from the technology, as Accelergy does: a trace keeps
one record per system config object (`priced`) of its DRAM and compute energy,
base time (cycles / clock plus DRAM latency) and per-store counts, so
estimate_energy runs only the multiply-adds the array metrics enter, in the
order of pricing on every call: no number changes. A report's numbers live in
its fields alone.

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
    _BUFFERS,
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


# a phase or report's numbers as as_dict() names them, each a field or property
REPORT_KEYS = ("dram_nj", "onchip_nj", "leakage_nj", "compute_nj", "time_ns", "total_nj")


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
        return {key: getattr(self, key) for key in REPORT_KEYS}


_PHASES = tuple(Phase)


@dataclass(frozen=True)
class EnergyReport(PhaseEnergy):
    """One iteration: each component is the sum of its per-phase values."""

    per_phase: dict[Phase, PhaseEnergy]

    def as_dict(self) -> dict:
        return {**super().as_dict(), "per_phase": {
            phase.value: pe.as_dict() for phase, pe in self.per_phase.items()}}


def _priced(trace: AccessTrace, sys: SystemEnergyConfig) -> tuple:
    """trace's record at the config object sys: (sys, per phase (dram_nj, cycles / clock
    plus DRAM latency in ns, compute_nj, each _BUFFERS store's (reads, writes)))."""
    if trace.priced and trace.priced[0] is sys:
        return trace.priced
    totals, compute = trace.totals, trace.phase_compute
    phases = []
    for phase in _PHASES:
        reads, writes = totals.get((phase, Store.DRAM), (0, 0))
        dram_accesses = (reads + writes) / sys.dram_burst_elements
        macs, cycles = compute.get(phase, (0, 0))
        phases.append((dram_accesses * sys.dram_energy_per_access_nj,
                       cycles / sys.clock_ghz + dram_accesses * sys.dram_latency_ns,
                       macs * sys.mac_energy_pj / 1e3,
                       [totals.get((phase, store), (0, 0)) for store in _BUFFERS]))
    trace.priced = sys, phases
    return trace.priced


def estimate_energy(trace: AccessTrace, act: ArrayMetrics, wt: ArrayMetrics,
                    err: ArrayMetrics, sys: SystemEnergyConfig) -> EnergyReport:
    """Energy and serialized-time report for one iteration's trace.

    Reads the trace's per-(phase, store) totals and per-phase compute; a key
    the trace lacks counts as zero. Each total is summed over the phases in order.
    """
    _, phases = _priced(trace, sys)
    buffers = [(m.read_energy_pj, m.write_energy_pj, m.read_latency_ns, m.write_latency_ns)
               for m in (act, wt, err)]
    leak_mw = act.leakage_mw + wt.leakage_mw + err.leakage_mw
    per_phase: dict[Phase, PhaseEnergy] = {}
    dram = onchip = leakage = compute = total_ns = 0.0
    for phase, (dram_nj, time_ns, compute_nj, counts) in zip(_PHASES, phases):
        onchip_pj = 0.0
        for (reads, writes), (read_pj, write_pj, read_ns, write_ns) in zip(counts, buffers):
            onchip_pj += reads * read_pj
            onchip_pj += writes * write_pj
            time_ns += reads * read_ns
            time_ns += writes * write_ns
        onchip_nj, leakage_nj = onchip_pj / 1e3, leak_mw * time_ns / 1e3  # mW * ns = pJ
        per_phase[phase] = PhaseEnergy(dram_nj, onchip_nj, leakage_nj, compute_nj, time_ns)
        dram += dram_nj
        onchip += onchip_nj
        leakage += leakage_nj
        compute += compute_nj
        total_ns += time_ns
    return EnergyReport(dram, onchip, leakage, compute, total_ns, per_phase)


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
    """Equal silicon budget: each technology resolves its own capacity.

    area_mm2 is the area of one buffer: it becomes one capacity per technology, and
    each of the three buffers (activation, weight, error; _buffered) gets that
    capacity, so one side's scratchpad takes 3 * area_mm2 (165 mm^2 is 495 mm^2)."""
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
