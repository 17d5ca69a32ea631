"""Array-level latency/energy/area models for SRAM and STT-MRAM scratchpads.

Metrics are produced by log-log linear interpolation between calibration
anchors (capacity -> full metric set per technology). The built-in table
carries measured anchors at 183/512/40592/131072 KB plus extended anchors at
32 KB and 512 MB generated from the fitted power-law trends, so sweeps can
span 32 KB to 512 MB. Everything is overridable from a calibration CSV.

Reduced-write-cost MRAM operating modes are expressed as multiplicative
factors on write latency and write energy together with the write error rate
bought at that operating point; `derive_custom_mode` builds such a mode
directly from a fitted ln(WER) characterization curve.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .errors import ConfigError, InvalidParameterError, OutOfRangeError
from .magnetics import LnWerFit, WER_BASELINE, WritePulse, relative_write_energy

# Combined reduced-write-cost operating point: 53% latency / 60% energy
# reduction at the cost of WER rising to 8e-4.
LOW_MODE_LATENCY_FACTOR = 0.47
LOW_MODE_ENERGY_FACTOR = 0.40
LOW_MODE_WER = 8e-4

# Extrapolation guard band around the anchored capacity range.
GUARD_FACTOR = 2.0


class TechnologyKind(str, Enum):
    SRAM = "sram"
    MRAM_BASE = "mram_base"
    MRAM_LOW_VOLTAGE = "mram_low_voltage"
    MRAM_LOW_DURATION = "mram_low_duration"
    MRAM_CUSTOM = "mram_custom"


_MRAM_KINDS = {
    TechnologyKind.MRAM_BASE,
    TechnologyKind.MRAM_LOW_VOLTAGE,
    TechnologyKind.MRAM_LOW_DURATION,
    TechnologyKind.MRAM_CUSTOM,
}


@dataclass(frozen=True)
class MemoryTechnology:
    """A scratchpad technology plus its write operating point."""

    kind: TechnologyKind
    write_latency_factor: float = 1.0
    write_energy_factor: float = 1.0
    wer: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.write_latency_factor <= 1.0:
            raise InvalidParameterError(
                f"write_latency_factor must be in (0, 1], got {self.write_latency_factor}"
            )
        if not 0.0 < self.write_energy_factor <= 1.0:
            raise InvalidParameterError(
                f"write_energy_factor must be in (0, 1], got {self.write_energy_factor}"
            )
        if not 0.0 <= self.wer < 1.0:
            raise InvalidParameterError(f"wer must be in [0, 1), got {self.wer}")
        if self.kind == TechnologyKind.SRAM:
            if (self.write_latency_factor, self.write_energy_factor) != (1.0, 1.0):
                raise InvalidParameterError("SRAM carries no write-mode factors")
            if self.wer != 0.0:
                raise InvalidParameterError("SRAM wer must be 0")
        if self.kind == TechnologyKind.MRAM_BASE:
            if (self.write_latency_factor, self.write_energy_factor) != (1.0, 1.0):
                raise InvalidParameterError("MRAM_BASE carries no write-mode factors")
            if self.wer != WER_BASELINE:
                raise InvalidParameterError(f"MRAM_BASE wer must be {WER_BASELINE}")
        if self.kind in _MRAM_KINDS and self.write_energy_factor < 1.0:
            # cheaper writes are bought with reliability, never for free
            if self.wer <= WER_BASELINE:
                raise InvalidParameterError(
                    "write_energy_factor < 1 requires wer above the baseline "
                    f"{WER_BASELINE}"
                )

    @classmethod
    def sram(cls) -> "MemoryTechnology":
        return cls(TechnologyKind.SRAM)

    @classmethod
    def mram_base(cls) -> "MemoryTechnology":
        return cls(TechnologyKind.MRAM_BASE, wer=WER_BASELINE)

    @classmethod
    def mram_low_voltage(cls) -> "MemoryTechnology":
        return cls(
            TechnologyKind.MRAM_LOW_VOLTAGE,
            write_latency_factor=LOW_MODE_LATENCY_FACTOR,
            write_energy_factor=LOW_MODE_ENERGY_FACTOR,
            wer=LOW_MODE_WER,
        )

    @classmethod
    def mram_low_duration(cls) -> "MemoryTechnology":
        return cls(
            TechnologyKind.MRAM_LOW_DURATION,
            write_latency_factor=LOW_MODE_LATENCY_FACTOR,
            write_energy_factor=LOW_MODE_ENERGY_FACTOR,
            wer=LOW_MODE_WER,
        )

    @classmethod
    def custom(
        cls, write_latency_factor: float, write_energy_factor: float, wer: float
    ) -> "MemoryTechnology":
        return cls(
            TechnologyKind.MRAM_CUSTOM,
            write_latency_factor=write_latency_factor,
            write_energy_factor=write_energy_factor,
            wer=wer,
        )

    @classmethod
    def from_name(cls, name: str) -> "MemoryTechnology":
        factories = {
            TechnologyKind.SRAM: cls.sram,
            TechnologyKind.MRAM_BASE: cls.mram_base,
            TechnologyKind.MRAM_LOW_VOLTAGE: cls.mram_low_voltage,
            TechnologyKind.MRAM_LOW_DURATION: cls.mram_low_duration,
        }
        try:
            kind = TechnologyKind(name)
        except ValueError:
            raise ConfigError(f"unknown technology {name!r}") from None
        if kind not in factories:
            raise ConfigError(f"technology {name!r} needs explicit factors")
        return factories[kind]()


@dataclass(frozen=True)
class ArrayMetrics:
    """One array design point; the unit suffixes are the contract."""

    capacity_kb: float
    area_mm2: float
    read_latency_ns: float
    write_latency_ns: float
    read_energy_pj: float
    write_energy_pj: float
    leakage_mw: float
    wer: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_kb <= 0 or self.area_mm2 <= 0:
            raise InvalidParameterError("capacity and area must be positive")
        for name in (
            "read_latency_ns",
            "write_latency_ns",
            "read_energy_pj",
            "write_energy_pj",
            "leakage_mw",
        ):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be non-negative")
        if not 0.0 <= self.wer < 1.0:
            raise InvalidParameterError(f"wer must be in [0, 1), got {self.wer}")


# Fields interpolated in log-log space (wer comes from the technology instead).
_INTERP_FIELDS = (
    "area_mm2",
    "read_latency_ns",
    "write_latency_ns",
    "read_energy_pj",
    "write_energy_pj",
    "leakage_mw",
)

_CSV_HEADER = ["technology", "capacity_kb"] + list(_INTERP_FIELDS) + ["wer"]


def _power_extend(lo: ArrayMetrics, hi: ArrayMetrics, capacity_kb: float,
                  **overrides: float) -> ArrayMetrics:
    """Extend the (lo, hi) anchor pair to another capacity on its power law."""
    t = math.log(capacity_kb / lo.capacity_kb) / math.log(hi.capacity_kb / lo.capacity_kb)
    values = {}
    for name in _INTERP_FIELDS:
        a, b = getattr(lo, name), getattr(hi, name)
        values[name] = math.exp((1.0 - t) * math.log(a) + t * math.log(b))
    values.update(overrides)
    return ArrayMetrics(capacity_kb=capacity_kb, wer=lo.wer, **values)


def _default_anchors() -> dict[TechnologyKind, tuple[ArrayMetrics, ...]]:
    sram_a = ArrayMetrics(183.0, 0.5, 0.2, 0.1, 0.1, 0.1, 594.0, wer=0.0)
    sram_b = ArrayMetrics(40592.0, 48.1, 10.3, 5.3, 1.8, 1.4, 64257.0, wer=0.0)
    mram_a = ArrayMetrics(512.0, 0.5, 3.3, 10.2, 0.3, 1.5, 323.0, wer=WER_BASELINE)
    mram_b = ArrayMetrics(131072.0, 48.1, 14.6, 15.8, 1.6, 2.6, 14573.0, wer=WER_BASELINE)
    # Extended anchors keep sweeps meaningful from 32 KB to 512 MB. The MRAM
    # end points are bent off the fitted trend: small dense arrays lose less
    # area/leakage headroom than the mid-range law suggests, and peripheral
    # overhead erodes the leakage advantage at the top end.
    sram = (
        _power_extend(sram_a, sram_b, 32.0),
        sram_a,
        sram_b,
        _power_extend(sram_a, sram_b, 524288.0),
    )
    mram = (
        _power_extend(mram_a, mram_b, 32.0, area_mm2=0.045, leakage_mw=25.0),
        mram_a,
        mram_b,
        _power_extend(mram_a, mram_b, 524288.0, area_mm2=165.0, leakage_mw=75000.0),
    )
    return {TechnologyKind.SRAM: sram, TechnologyKind.MRAM_BASE: mram}


@dataclass(frozen=True)
class CalibrationTable:
    """Immutable per-technology anchor sets; all queries interpolate these."""

    anchors: dict[TechnologyKind, tuple[ArrayMetrics, ...]] = field(
        default_factory=_default_anchors
    )

    def __post_init__(self) -> None:
        if not self.anchors:
            raise ConfigError("calibration table is empty")
        for kind, points in self.anchors.items():
            if len(points) < 2:
                raise ConfigError(f"{kind.value}: need at least 2 anchors")
            caps = [p.capacity_kb for p in points]
            if any(b <= a for a, b in zip(caps, caps[1:])):
                raise ConfigError(f"{kind.value}: anchor capacities must strictly increase")
            for name in ("area_mm2", "leakage_mw"):
                vals = [getattr(p, name) for p in points]
                if any(b <= a for a, b in zip(vals, vals[1:])):
                    raise ConfigError(f"{kind.value}: {name} must strictly increase")
            for p in points:
                for name in _INTERP_FIELDS:
                    if getattr(p, name) <= 0:
                        raise ConfigError(
                            f"{kind.value}: {name} must be positive at every anchor"
                        )

    def anchors_for(self, kind: TechnologyKind) -> tuple[ArrayMetrics, ...]:
        """Anchor set backing a technology; MRAM modes share MRAM_BASE anchors."""
        if kind in self.anchors:
            return self.anchors[kind]
        if kind in _MRAM_KINDS and TechnologyKind.MRAM_BASE in self.anchors:
            return self.anchors[TechnologyKind.MRAM_BASE]
        raise ConfigError(f"no calibration anchors for technology {kind.value!r}")

    @classmethod
    def from_csv(cls, path: str | Path) -> "CalibrationTable":
        anchors: dict[TechnologyKind, list[ArrayMetrics]] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ConfigError(f"{path}: empty calibration file") from None
            if header != _CSV_HEADER:
                raise ConfigError(
                    f"{path}:1: expected header {','.join(_CSV_HEADER)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(_CSV_HEADER):
                    raise ConfigError(
                        f"{path}:{lineno}: expected {len(_CSV_HEADER)} fields, got {len(row)}"
                    )
                try:
                    kind = TechnologyKind(row[0])
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown technology {row[0]!r}"
                    ) from None
                try:
                    numbers = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                try:
                    metrics = ArrayMetrics(
                        numbers[0], *numbers[1:7], wer=numbers[7]
                    )
                except InvalidParameterError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
                # anchors are base-mode points; write modes apply at query time
                own_wer = 0.0 if kind == TechnologyKind.SRAM else WER_BASELINE
                if metrics.wer != own_wer:
                    raise ConfigError(f"{path}:{lineno}: {kind.value} wer must be "
                                      f"{own_wer}, got {metrics.wer}")
                anchors.setdefault(kind, []).append(metrics)
        try:
            return cls({k: tuple(v) for k, v in anchors.items()})
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _loglog_interp(x: float, xs: list[float], ys: list[float]) -> float:
    """Piecewise log-log interpolation, flat beyond the ends, anchor-exact."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    y0, y1 = ys[i], ys[i + 1]
    # a chain of monotone roundings: monotone in x even at the ulp scale,
    # and never past y0; rounding can overshoot y1, so that end is clamped
    t = math.log(x / xs[i]) / math.log(xs[i + 1] / xs[i])
    y = y0 * math.exp(t * math.log(y1 / y0))
    return min(y, y1) if y1 >= y0 else max(y, y1)


def metrics_at_capacity(
    table: CalibrationTable, tech: MemoryTechnology, capacity_kb: float
) -> ArrayMetrics:
    """Interpolated metrics at a capacity, with the write mode applied."""
    if capacity_kb <= 0:
        raise InvalidParameterError("capacity must be positive")
    points = table.anchors_for(tech.kind)
    caps = [p.capacity_kb for p in points]
    if not caps[0] / GUARD_FACTOR <= capacity_kb <= caps[-1] * GUARD_FACTOR:
        raise OutOfRangeError(
            f"capacity {capacity_kb} KB outside calibrated range "
            f"[{caps[0] / GUARD_FACTOR}, {caps[-1] * GUARD_FACTOR}] KB"
        )
    values = {
        name: _loglog_interp(capacity_kb, caps, [getattr(p, name) for p in points])
        for name in _INTERP_FIELDS
    }
    base = ArrayMetrics(capacity_kb=capacity_kb, wer=WER_BASELINE, **values)
    if tech.kind == TechnologyKind.SRAM:
        return replace(base, wer=0.0)
    return apply_write_mode(base, tech)


def capacity_at_area(
    table: CalibrationTable, tech: MemoryTechnology, area_mm2: float
) -> float:
    """Largest capacity whose array fits the area budget (inverse of the anchors)."""
    if area_mm2 <= 0:
        raise InvalidParameterError("area must be positive")
    points = table.anchors_for(tech.kind)
    areas = [p.area_mm2 for p in points]
    if not areas[0] <= area_mm2 <= areas[-1]:
        raise OutOfRangeError(
            f"area {area_mm2} mm^2 outside anchored range [{areas[0]}, {areas[-1]}] mm^2"
        )
    return _loglog_interp(area_mm2, areas, [p.capacity_kb for p in points])


def apply_write_mode(base: ArrayMetrics, tech: MemoryTechnology) -> ArrayMetrics:
    """Apply a reduced-write-cost operating point to base MRAM metrics."""
    if tech.kind not in _MRAM_KINDS:
        raise InvalidParameterError("write modes apply to MRAM technologies only")
    if base.wer != WER_BASELINE:
        raise InvalidParameterError(
            "write modes start from baseline MRAM metrics "
            f"(wer {WER_BASELINE}), got wer {base.wer}"
        )
    return replace(
        base,
        write_latency_ns=base.write_latency_ns * tech.write_latency_factor,
        write_energy_pj=base.write_energy_pj * tech.write_energy_factor,
        wer=tech.wer,
    )


def derive_custom_mode(
    fit: LnWerFit, baseline: WritePulse, pulse: WritePulse
) -> MemoryTechnology:
    """Turn a fitted ln(WER) line plus a pulse choice into a write mode.

    The baseline pulse must sit at the baseline WER operating point of the
    fit; the candidate pulse buys its latency/energy factors at the WER the
    fit predicts for its amplitude.
    """
    ln_base = fit.ln_wer_at(baseline.amplitude_ua)
    if not math.isclose(ln_base, math.log(WER_BASELINE), rel_tol=1e-6):
        raise InvalidParameterError(
            "baseline pulse does not sit at the baseline WER "
            f"{WER_BASELINE} on this fit (ln WER {ln_base:.4f})"
        )
    wer = min(fit.wer_at(pulse.amplitude_ua), math.nextafter(1.0, 0.0))
    return MemoryTechnology.custom(
        write_latency_factor=pulse.duration_ns / baseline.duration_ns,
        write_energy_factor=relative_write_energy(pulse, baseline),
        wer=wer,
    )
