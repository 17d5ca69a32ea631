"""Array-level latency/energy/area models for SRAM and STT-MRAM scratchpads.

Metrics are produced by log-log linear interpolation between calibration
anchors (capacity -> full metric set per technology). The built-in table
carries anchors at 183/512/40592/131072 KB plus extended anchors at 32 KB and
512 MB generated from the fitted power-law trends, so sweeps can span 32 KB to
512 MB. Everything is overridable from a calibration CSV.

The source of the built-in anchors, their technology node and the unit of
their leakage are not established. Read as mW, the leakage is, per bit: SRAM
396 nW at 183 KB and 193 nW at 40,592 KB; MRAM 77 nW at 512 KB, 13.6 nW at
128 MB and 17.5 nW at the extrapolated 512 MB. At equal capacity SRAM takes
2.39-2.69x MRAM's area over 32 KB-512 MB, against the paper's 3-4x density.

Every technology carries a write operating point: multiplicative factors on
write latency and write energy together with the write error rate bought at
that point. `metrics_at_capacity` applies it once, to every technology;
`sram` and `mram_base` carry identity factors, so their interpolated write
costs pass through unchanged, and every MRAM mode shares the `mram_base`
anchors. `derive_custom_mode` builds a mode directly from a fitted ln(WER)
characterization curve.

A `CalibrationTable` computes its interpolation constants once, when it is
built: for each technology's anchor set, every field's anchor values and
the log of each segment's ratio, log(y1 / y0). A query then makes one bisect
and one interpolation fraction, shared by every field it returns.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import (POSITIVE, THROUGH_ONE, ConfigError, InvalidParameterError,
                     OutOfRangeError, bounded, check_fields, check_range)
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


# (write_latency_factor, write_energy_factor, wer) of each named technology;
# only mram_custom sets its own
_PRESETS = {
    TechnologyKind.SRAM: (1.0, 1.0, 0.0),
    TechnologyKind.MRAM_BASE: (1.0, 1.0, WER_BASELINE),
    TechnologyKind.MRAM_LOW_VOLTAGE: (LOW_MODE_LATENCY_FACTOR, LOW_MODE_ENERGY_FACTOR,
                                      LOW_MODE_WER),
    TechnologyKind.MRAM_LOW_DURATION: (LOW_MODE_LATENCY_FACTOR, LOW_MODE_ENERGY_FACTOR,
                                       LOW_MODE_WER),
}


@dataclass(frozen=True)
class MemoryTechnology:
    """A scratchpad technology plus its write operating point."""

    kind: TechnologyKind
    write_latency_factor: float = bounded(POSITIVE, THROUGH_ONE, default=1.0)
    write_energy_factor: float = bounded(POSITIVE, THROUGH_ONE, default=1.0)
    wer: float = bounded(0.0, 1.0, default=0.0)

    def __post_init__(self) -> None:
        check_fields(self)
        own = (self.write_latency_factor, self.write_energy_factor, self.wer)
        preset = _PRESETS.get(self.kind, own)
        if own != preset:
            raise InvalidParameterError(
                f"{self.kind.value} carries (write_latency_factor, write_energy_factor, "
                f"wer) = {preset}, got {own}")
        if min(self.write_latency_factor, self.write_energy_factor) < 1.0 \
                and self.wer <= WER_BASELINE:
            # cheaper or shorter writes are bought with reliability, never for free
            raise InvalidParameterError("write_latency_factor or write_energy_factor < 1 "
                                        f"requires wer above the baseline {WER_BASELINE}")

    @classmethod
    def from_name(cls, name: str) -> "MemoryTechnology":
        """The named technology with its preset factors and wer."""
        try:
            kind = TechnologyKind(name)
        except ValueError:
            raise ConfigError(f"unknown technology {name!r}") from None
        if kind not in _PRESETS:
            raise ConfigError(f"technology {name!r} needs explicit factors")
        return cls(kind, *_PRESETS[kind])


@dataclass(frozen=True)
class ArrayMetrics:
    """One array design point; the unit suffixes are the contract."""

    capacity_kb: float = bounded(POSITIVE)
    area_mm2: float = bounded(POSITIVE)
    read_latency_ns: float = bounded(0.0)
    write_latency_ns: float = bounded(0.0)
    read_energy_pj: float = bounded(0.0)
    write_energy_pj: float = bounded(0.0)
    leakage_mw: float = bounded(0.0)
    wer: float = bounded(0.0, 1.0, default=0.0)

    __post_init__ = check_fields


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
    # the interpolation constants of each technology's anchor set
    _axes: dict = field(init=False, repr=False, compare=False)

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
            for p in points:  # log-log interpolation needs every anchor value > 0
                for name in _INTERP_FIELDS:
                    check_range(f"{kind.value}: {name}", getattr(p, name), POSITIVE)
        axes = {}
        for kind in TechnologyKind:
            with suppress(ConfigError):  # no anchor set backs this kind
                axes[kind] = _segment_logs(self.anchors_for(kind))
        object.__setattr__(self, "_axes", axes)

    def anchors_for(self, kind: TechnologyKind) -> tuple[ArrayMetrics, ...]:
        """Anchor set backing a technology; MRAM modes share MRAM_BASE anchors."""
        if kind in self.anchors:
            return self.anchors[kind]
        if kind != TechnologyKind.SRAM and TechnologyKind.MRAM_BASE in self.anchors:
            return self.anchors[TechnologyKind.MRAM_BASE]
        raise ConfigError(f"no calibration anchors for technology {kind.value!r}")

    @classmethod
    def from_csv(cls, path: str | Path) -> "CalibrationTable":
        anchors: dict[TechnologyKind, list[ArrayMetrics]] = {}
        with open(path, newline="") as fh:
            # each row with its line number in the file, "#" lines skipped: the CLI
            # heads its CSV files with a "# manifest: ..." line
            rows = ((lineno, row) for lineno, line in enumerate(fh, start=1)
                    if not line.startswith("#") for row in csv.reader([line]))
            try:
                lineno, header = next(rows)
            except StopIteration:
                raise ConfigError(f"{path}: empty calibration file") from None
            if header != _CSV_HEADER:
                raise ConfigError(
                    f"{path}:{lineno}: expected header {','.join(_CSV_HEADER)}"
                )
            for lineno, row in rows:
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
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _segment_logs(points: tuple[ArrayMetrics, ...]) -> dict[str, tuple[list, list]]:
    """Each field's anchor values and the log of each segment's ratio y1 / y0."""
    axes = {}
    for name in ("capacity_kb", *_INTERP_FIELDS):
        ys = [getattr(p, name) for p in points]
        axes[name] = ys, [math.log(y1 / y0) for y0, y1 in zip(ys, ys[1:])]
    return axes


def _loglog_interp(axes: dict, by: str, x: float, names: tuple[str, ...]) -> list[float]:
    """Piecewise log-log interpolation of each named field at field `by` = x:
    flat beyond the ends, anchor-exact. One bisect and one t serve every field."""
    xs, dx = axes[by]
    if x >= xs[-1]:
        return [axes[name][0][-1] for name in names]
    i = max(bisect_right(xs, x) - 1, 0)
    # a chain of monotone roundings: monotone in x even at the ulp scale,
    # and never past y0; rounding can overshoot y1, so that end is clamped
    t = max(math.log(x / xs[i]) / dx[i], 0.0)  # 0 below the first anchor: y = y0
    out = []
    for name in names:
        ys, dy = axes[name]
        y0, y1 = ys[i], ys[i + 1]
        y = y0 * math.exp(t * dy[i])
        out.append(min(y, y1) if y1 >= y0 else max(y, y1))
    return out


def metrics_at_capacity(
    table: CalibrationTable, tech: MemoryTechnology, capacity_kb: float
) -> ArrayMetrics:
    """Interpolated metrics at a capacity, with the technology's write mode applied."""
    check_range("capacity_kb", capacity_kb, POSITIVE)
    points = table.anchors_for(tech.kind)
    lo, hi = points[0].capacity_kb / GUARD_FACTOR, points[-1].capacity_kb * GUARD_FACTOR
    if not lo <= capacity_kb <= hi:
        raise OutOfRangeError(
            f"capacity {capacity_kb} KB outside calibrated range [{lo}, {hi}] KB")
    area, rl, wl, re, we, leak = _loglog_interp(table._axes[tech.kind], "capacity_kb",
                                                capacity_kb, _INTERP_FIELDS)
    return ArrayMetrics(capacity_kb, area, rl, wl * tech.write_latency_factor, re,
                        we * tech.write_energy_factor, leak, tech.wer)


def capacity_at_area(
    table: CalibrationTable, tech: MemoryTechnology, area_mm2: float
) -> float:
    """Largest capacity whose array fits the area budget (inverse of the anchors)."""
    check_range("area_mm2", area_mm2, POSITIVE)
    points = table.anchors_for(tech.kind)
    lo, hi = points[0].area_mm2, points[-1].area_mm2
    if not lo <= area_mm2 <= hi:
        raise OutOfRangeError(
            f"area {area_mm2} mm^2 outside anchored range [{lo}, {hi}] mm^2")
    return _loglog_interp(table._axes[tech.kind], "area_mm2", area_mm2, ("capacity_kb",))[0]


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
    return MemoryTechnology(
        TechnologyKind.MRAM_CUSTOM,
        write_latency_factor=pulse.duration_ns / baseline.duration_ns,
        write_energy_factor=relative_write_energy(pulse, baseline),
        wer=wer,
    )
