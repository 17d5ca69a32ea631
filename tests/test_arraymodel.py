import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loglog_interp
from spinpad.arraymodel import (
    GUARD_FACTOR,
    ArrayMetrics,
    CalibrationTable,
    LOW_MODE_ENERGY_FACTOR,
    LOW_MODE_LATENCY_FACTOR,
    LOW_MODE_WER,
    MemoryTechnology,
    TechnologyKind,
    capacity_at_area,
    derive_custom_mode,
    metrics_at_capacity,
)
from spinpad.errors import ConfigError, InvalidParameterError, OutOfRangeError
from spinpad.magnetics import LnWerFit, WER_BASELINE, WritePulse

TABLE = CalibrationTable()
CONFIGS = Path(__file__).parent.parent / "configs"
SRAM = MemoryTechnology.from_name("sram")
MRAM = MemoryTechnology.from_name("mram_base")

# Measured anchor rows: capacity -> (area, rl, wl, re, we, leak)
SRAM_ANCHORS = {
    183.0: (0.5, 0.2, 0.1, 0.1, 0.1, 594.0),
    40592.0: (48.1, 10.3, 5.3, 1.8, 1.4, 64257.0),
}
MRAM_ANCHORS = {
    512.0: (0.5, 3.3, 10.2, 0.3, 1.5, 323.0),
    131072.0: (48.1, 14.6, 15.8, 1.6, 2.6, 14573.0),
}


def test_technology_factories():
    assert SRAM.wer == 0.0
    assert (SRAM.write_latency_factor, SRAM.write_energy_factor) == (1.0, 1.0)
    assert MRAM.wer == WER_BASELINE
    low = MemoryTechnology.from_name("mram_low_voltage")
    assert low.write_latency_factor == LOW_MODE_LATENCY_FACTOR
    assert low.write_energy_factor == LOW_MODE_ENERGY_FACTOR
    assert low.wer == LOW_MODE_WER
    dur = MemoryTechnology.from_name("mram_low_duration")
    assert (dur.write_latency_factor, dur.write_energy_factor, dur.wer) == (
        low.write_latency_factor, low.write_energy_factor, low.wer)
    assert MemoryTechnology.from_name("sram") == SRAM
    assert MemoryTechnology.from_name("mram_base") == MRAM
    with pytest.raises(ConfigError):
        MemoryTechnology.from_name("flash")
    with pytest.raises(ConfigError):
        MemoryTechnology.from_name("mram_custom")  # needs explicit factors


def test_technology_validation():
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.SRAM, write_energy_factor=0.5)
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.SRAM, wer=1e-4)
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.MRAM_BASE, wer=0.0)
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 0.0, 0.5, 1e-4)
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 1.5, 0.5, 1e-4)
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 0.5, 0.5, 1.0)
    # cheaper writes must cost reliability
    with pytest.raises(InvalidParameterError):
        MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 1.0, 0.5, WER_BASELINE)
    MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 1.0, 0.5, 1e-6)  # wer above baseline
    # and so must shorter ones
    for wer in (0.0, WER_BASELINE):
        with pytest.raises(InvalidParameterError, match="write_latency_factor or"):
            MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 0.1, 1.0, wer)
    MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 0.1, 1.0, 1e-6)
    MemoryTechnology(TechnologyKind.MRAM_CUSTOM, 1.0, 1.0, 0.0)  # no cheaper write


def test_array_metrics_validation():
    with pytest.raises(InvalidParameterError):
        ArrayMetrics(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ArrayMetrics(1.0, 1.0, -0.1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        ArrayMetrics(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, wer=1.0)


@pytest.mark.parametrize("tech,anchors", [(SRAM, SRAM_ANCHORS), (MRAM, MRAM_ANCHORS)])
def test_measured_anchors_reproduced_exactly(tech, anchors):
    for cap, (area, rl, wl, re, we, leak) in anchors.items():
        m = metrics_at_capacity(TABLE, tech, cap)
        assert m.area_mm2 == area
        assert m.read_latency_ns == rl
        assert m.write_latency_ns == wl
        assert m.read_energy_pj == re
        assert m.write_energy_pj == we
        assert m.leakage_mw == leak


def test_wer_comes_from_technology():
    assert metrics_at_capacity(TABLE, SRAM, 183.0).wer == 0.0
    assert metrics_at_capacity(TABLE, MRAM, 512.0).wer == WER_BASELINE
    low = MemoryTechnology.from_name("mram_low_voltage")
    assert metrics_at_capacity(TABLE, low, 512.0).wer == LOW_MODE_WER


def test_loglog_midpoint():
    # geometric midpoint capacity -> geometric mean of each anchor metric
    cap = math.sqrt(512.0 * 131072.0)
    m = metrics_at_capacity(TABLE, MRAM, cap)
    lo, hi = MRAM_ANCHORS[512.0], MRAM_ANCHORS[131072.0]
    for got, a, b in zip(
        (m.read_latency_ns, m.write_latency_ns, m.read_energy_pj,
         m.write_energy_pj, m.leakage_mw),
        lo[1:], hi[1:],
    ):
        assert got == pytest.approx(math.sqrt(a * b), rel=1e-12)
        assert min(a, b) < got < max(a, b)


def test_guard_band_clamps_then_errors():
    caps = [p.capacity_kb for p in TABLE.anchors_for(TechnologyKind.SRAM)]
    at_min = metrics_at_capacity(TABLE, SRAM, caps[0])
    clamped = metrics_at_capacity(TABLE, SRAM, caps[0] / 2.0)
    assert clamped.read_latency_ns == at_min.read_latency_ns
    assert clamped.leakage_mw == at_min.leakage_mw
    assert clamped.capacity_kb == caps[0] / 2.0  # requested capacity preserved
    top = metrics_at_capacity(TABLE, SRAM, caps[-1] * 2.0)
    assert top.read_latency_ns == metrics_at_capacity(TABLE, SRAM, caps[-1]).read_latency_ns
    with pytest.raises(OutOfRangeError):
        metrics_at_capacity(TABLE, SRAM, caps[0] / 2.0 - 0.01)
    with pytest.raises(OutOfRangeError):
        metrics_at_capacity(TABLE, SRAM, caps[-1] * 2.0 + 1.0)
    with pytest.raises(InvalidParameterError):
        metrics_at_capacity(TABLE, SRAM, -5.0)


def test_low_mode_write_costs():
    m = metrics_at_capacity(TABLE, MemoryTechnology.from_name("mram_low_voltage"), 512.0)
    assert m.write_latency_ns == pytest.approx(4.794, rel=1e-12)
    assert m.write_energy_pj == pytest.approx(0.6, rel=1e-12)
    assert m.wer == LOW_MODE_WER
    base = metrics_at_capacity(TABLE, MRAM, 512.0)
    assert m.read_latency_ns == base.read_latency_ns
    assert m.read_energy_pj == base.read_energy_pj
    assert m.leakage_mw == base.leakage_mw
    assert m.area_mm2 == base.area_mm2


CUSTOM = MemoryTechnology(TechnologyKind.MRAM_CUSTOM, write_latency_factor=0.6,
                          write_energy_factor=0.5, wer=1e-6)
WRITE_MODES = [SRAM, MRAM, MemoryTechnology.from_name("mram_low_voltage"),
               MemoryTechnology.from_name("mram_low_duration"), CUSTOM]


def _family(tech: MemoryTechnology) -> tuple[ArrayMetrics, ...]:
    """The anchors a technology reads: sram its own, every MRAM mode mram_base's."""
    kind = TechnologyKind.SRAM if tech.kind == TechnologyKind.SRAM else TechnologyKind.MRAM_BASE
    return TABLE.anchors[kind]


def _check_mode(m: ArrayMetrics, tech: MemoryTechnology, family: dict, exact: bool) -> None:
    """m holds the family's values, with the technology's write mode on the write costs."""
    want = {**family,
            "write_latency_ns": family["write_latency_ns"] * tech.write_latency_factor,
            "write_energy_pj": family["write_energy_pj"] * tech.write_energy_factor}
    for name, value in want.items():
        got = getattr(m, name)
        assert got == value if exact else got == pytest.approx(value, rel=1e-12), name
    assert m.wer == tech.wer


_FIELDS = ("area_mm2", "read_latency_ns", "write_latency_ns", "read_energy_pj",
           "write_energy_pj", "leakage_mw")


@pytest.mark.parametrize("tech", WRITE_MODES, ids=lambda t: t.kind.value)
def test_metrics_at_anchor_capacities_apply_the_write_mode_once(tech):
    for anchor in _family(tech):
        m = metrics_at_capacity(TABLE, tech, anchor.capacity_kb)
        assert m.capacity_kb == anchor.capacity_kb
        _check_mode(m, tech, {f: getattr(anchor, f) for f in _FIELDS}, exact=True)


@given(tech=st.sampled_from(WRITE_MODES),
       cap=st.floats(min_value=32.0, max_value=524288.0, allow_nan=False))
def test_metrics_between_anchors_apply_the_write_mode_once(tech, cap):
    points = _family(tech)
    i = max(j for j, p in enumerate(points) if p.capacity_kb <= cap)
    lo, hi = points[i], points[min(i + 1, len(points) - 1)]
    t = 0.0 if lo is hi else (math.log(cap / lo.capacity_kb)
                              / math.log(hi.capacity_kb / lo.capacity_kb))
    # the family's log-log line between its bracketing anchors, written out afresh
    family = {f: math.exp((1 - t) * math.log(getattr(lo, f)) + t * math.log(getattr(hi, f)))
              for f in _FIELDS}
    m = metrics_at_capacity(TABLE, tech, cap)
    assert m.capacity_kb == cap
    _check_mode(m, tech, family, exact=False)
    # bit for bit: the family base's metrics, write costs times the factors
    base = metrics_at_capacity(TABLE, SRAM if tech.kind == TechnologyKind.SRAM else MRAM, cap)
    _check_mode(m, tech, {f: getattr(base, f) for f in _FIELDS}, exact=True)


TABLES = {"built-in": TABLE,
          "calibration_default.csv": CalibrationTable.from_csv(CONFIGS / "calibration_default.csv")}


def _queries(xs: list[float], lo: float, hi: float):
    """The anchors and their neighbouring floats, the ends of the allowed range
    [lo, hi], each segment's interior and the stretches beyond the first and
    last anchor."""
    edges = [y for x in xs for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    return st.one_of(st.sampled_from([y for y in (*edges, lo, hi) if lo <= y <= hi]),
                     st.integers(0, len(xs) - 2).flatmap(
                         lambda i: st.floats(xs[i], xs[i + 1])),
                     st.floats(lo, xs[0]), st.floats(xs[-1], hi))


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=300)
@given(data=st.data())
def test_interpolation_matches_the_one_field_oracle_bit_for_bit(name, data):
    table = TABLES[name]
    tech = data.draw(st.sampled_from(WRITE_MODES))
    points = table.anchors_for(tech.kind)
    caps = [p.capacity_kb for p in points]
    cap = data.draw(_queries(caps, caps[0] / GUARD_FACTOR, caps[-1] * GUARD_FACTOR))
    want = {f: loglog_interp(cap, caps, [getattr(p, f) for p in points]) for f in _FIELDS}
    want["write_latency_ns"] *= tech.write_latency_factor
    want["write_energy_pj"] *= tech.write_energy_factor
    m = metrics_at_capacity(table, tech, cap)
    assert {f: getattr(m, f) for f in _FIELDS} == want
    assert (m.capacity_kb, m.wer) == (cap, tech.wer)
    areas = [p.area_mm2 for p in points]
    area = data.draw(_queries(areas, areas[0], areas[-1]))
    assert capacity_at_area(table, tech, area) == loglog_interp(area, areas, caps)


def test_capacity_at_area_anchor_exact():
    assert capacity_at_area(TABLE, SRAM, 0.5) == 183.0
    assert capacity_at_area(TABLE, MRAM, 0.5) == 512.0
    assert capacity_at_area(TABLE, SRAM, 48.1) == 40592.0
    assert capacity_at_area(TABLE, MRAM, 48.1) == 131072.0


def test_capacity_at_area_roundtrip():
    for area in (0.12, 0.5, 3.7, 48.1, 120.0):
        cap = capacity_at_area(TABLE, MRAM, area)
        back = metrics_at_capacity(TABLE, MRAM, cap).area_mm2
        assert back == pytest.approx(area, rel=1e-9)


def test_capacity_at_area_range():
    areas = [p.area_mm2 for p in TABLE.anchors_for(TechnologyKind.MRAM_BASE)]
    with pytest.raises(OutOfRangeError):
        capacity_at_area(TABLE, MRAM, areas[0] * 0.9)
    with pytest.raises(OutOfRangeError):
        capacity_at_area(TABLE, MRAM, areas[-1] * 1.1)
    with pytest.raises(InvalidParameterError):
        capacity_at_area(TABLE, MRAM, 0.0)


def test_iso_area_capacity_and_leakage_ratios():
    # Reference bands are quoted to 2 significant figures; the anchor-exact
    # ratios 512/183 = 2.798 and 594/323 = 1.839 sit just outside them, so
    # the check allows 3.5% relative slack on the band edges.
    slack = 0.035
    s_areas = [p.area_mm2 for p in TABLE.anchors_for(TechnologyKind.SRAM)]
    m_areas = [p.area_mm2 for p in TABLE.anchors_for(TechnologyKind.MRAM_BASE)]
    lo = max(s_areas[0], m_areas[0])
    hi = min(s_areas[-1], m_areas[-1])
    shared = sorted({a for a in s_areas + m_areas if lo <= a <= hi})
    assert len(shared) >= 3
    for area in shared:
        cap_s = capacity_at_area(TABLE, SRAM, area)
        cap_m = capacity_at_area(TABLE, MRAM, area)
        ratio = cap_m / cap_s
        assert 2.8 * (1 - slack) <= ratio <= 3.2 * (1 + slack), (area, ratio)
        leak_s = metrics_at_capacity(TABLE, SRAM, cap_s).leakage_mw
        leak_m = metrics_at_capacity(TABLE, MRAM, cap_m).leakage_mw
        lratio = leak_s / leak_m
        assert 1.9 * (1 - slack) <= lratio <= 4.4 * (1 + slack), (area, lratio)


def test_mram_leakage_advantage_above_128kb():
    caps = sorted({p.capacity_kb for kind in (TechnologyKind.SRAM, TechnologyKind.MRAM_BASE)
                   for p in TABLE.anchors_for(kind)})
    for cap in caps:
        if cap < 128.0:
            continue
        assert (metrics_at_capacity(TABLE, MRAM, cap).leakage_mw
                < metrics_at_capacity(TABLE, SRAM, cap).leakage_mw), cap


def test_default_anchors_have_their_documented_scale():
    """The per-bit leakage (leakage_mw read as mW) and the equal-capacity area ratio
    that the arraymodel docstring and README state for the built-in anchors."""
    per_bit_nw = {(kind, p.capacity_kb): f"{p.leakage_mw * 1e6 / (p.capacity_kb * 8192):.3g}"
                  for kind in (TechnologyKind.SRAM, TechnologyKind.MRAM_BASE)
                  for p in TABLE.anchors_for(kind)}
    sram, mram = TechnologyKind.SRAM, TechnologyKind.MRAM_BASE
    stated = {(sram, 183.0): "396", (sram, 40592.0): "193", (mram, 512.0): "77",
              (mram, 131072.0): "13.6", (mram, 524288.0): "17.5"}
    assert {key: per_bit_nw[key] for key in stated} == stated
    # the ratio is log-linear between the anchor capacities, so its ends sit on them
    caps = {cap for _, cap in per_bit_nw}
    ratios = [metrics_at_capacity(TABLE, SRAM, cap).area_mm2
              / metrics_at_capacity(TABLE, MRAM, cap).area_mm2 for cap in caps]
    assert (f"{min(ratios):.3g}", f"{max(ratios):.3g}") == ("2.39", "2.69")


def _fit_through(baseline_amp, target_amp, target_wer):
    """ln WER line pinned to the baseline WER at baseline_amp and target_wer
    at target_amp."""
    slope = (math.log(target_wer) - math.log(WER_BASELINE)) / (target_amp - baseline_amp)
    intercept = math.log(WER_BASELINE) - slope * baseline_amp
    return LnWerFit(10.0, slope, intercept, 1.0, 8)


def test_derive_custom_mode_identity():
    fit = _fit_through(100.0, 80.0, 1e-5)
    base = WritePulse(100.0, 10.0)
    tech = derive_custom_mode(fit, base, base)
    assert tech.kind == TechnologyKind.MRAM_CUSTOM
    assert tech.write_latency_factor == 1.0
    assert tech.write_energy_factor == 1.0
    assert tech.wer == pytest.approx(WER_BASELINE, rel=1e-12)


def test_derive_custom_mode_reduced_amplitude():
    # amplitude chosen so pulse energy is 0.40 of baseline at equal duration
    target_amp = 100.0 * math.sqrt(0.4)
    fit = _fit_through(100.0, target_amp, 8e-4)
    base = WritePulse(100.0, 10.0)
    tech = derive_custom_mode(fit, base, WritePulse(target_amp, 10.0))
    assert tech.write_latency_factor == 1.0
    assert tech.write_energy_factor == pytest.approx(0.4, rel=1e-9)
    assert tech.wer == pytest.approx(8e-4, rel=1e-9)
    assert tech.wer > WER_BASELINE


def test_derive_custom_mode_shorter_pulse_at_its_fitted_wer():
    fit = _fit_through(100.0, 80.0, 1e-5)
    base = WritePulse(100.0, 10.0)
    tech = derive_custom_mode(fit, base, WritePulse(80.0, 5.0))
    assert tech.write_latency_factor == 0.5
    assert tech.write_energy_factor == pytest.approx(0.32, rel=1e-12)
    assert tech.wer == pytest.approx(1e-5, rel=1e-9)


def test_derive_custom_mode_rejects_off_baseline():
    fit = _fit_through(100.0, 80.0, 1e-5)
    with pytest.raises(InvalidParameterError):
        derive_custom_mode(fit, WritePulse(90.0, 10.0), WritePulse(80.0, 10.0))


def test_table_validation():
    a = ArrayMetrics(32.0, 0.1, 1.0, 1.0, 1.0, 1.0, 10.0)
    b = ArrayMetrics(64.0, 0.2, 1.0, 1.0, 1.0, 1.0, 20.0)
    with pytest.raises(ConfigError):
        CalibrationTable({TechnologyKind.SRAM: (a,)})
    with pytest.raises(ConfigError):
        CalibrationTable({TechnologyKind.SRAM: (b, a)})  # capacities decreasing
    shrunk_area = ArrayMetrics(64.0, 0.05, 1.0, 1.0, 1.0, 1.0, 20.0)
    with pytest.raises(ConfigError):
        CalibrationTable({TechnologyKind.SRAM: (a, shrunk_area)})
    shrunk_leak = ArrayMetrics(64.0, 0.2, 1.0, 1.0, 1.0, 1.0, 5.0)
    with pytest.raises(ConfigError):
        CalibrationTable({TechnologyKind.SRAM: (a, shrunk_leak)})
    with pytest.raises(ConfigError):
        CalibrationTable({})


def test_mram_modes_share_base_anchors():
    low = MemoryTechnology.from_name("mram_low_voltage")
    assert TABLE.anchors_for(TechnologyKind.MRAM_LOW_VOLTAGE) == TABLE.anchors_for(
        TechnologyKind.MRAM_BASE
    )
    m = metrics_at_capacity(TABLE, low, 8192.0)
    base = metrics_at_capacity(TABLE, MRAM, 8192.0)
    assert m.read_latency_ns == base.read_latency_ns
    sram_only = CalibrationTable(
        {TechnologyKind.SRAM: TABLE.anchors[TechnologyKind.SRAM]}
    )
    with pytest.raises(ConfigError):
        metrics_at_capacity(sram_only, MRAM, 512.0)


def test_csv_roundtrip():
    # the bundled calibration file holds exactly the built-in anchors
    back = CalibrationTable.from_csv(CONFIGS / "calibration_default.csv")
    assert back.anchors == CalibrationTable().anchors


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ConfigError):
        CalibrationTable.from_csv(path)
    header = ("technology,capacity_kb,area_mm2,read_latency_ns,write_latency_ns,"
              "read_energy_pj,write_energy_pj,leakage_mw,wer\n")
    path.write_text(header + "flash,32,0.1,1,1,1,1,10,0\n")
    with pytest.raises(ConfigError, match="line|:2"):
        CalibrationTable.from_csv(path)
    path.write_text(header + "sram,32,0.1,1,1\n")
    with pytest.raises(ConfigError, match=":2"):
        CalibrationTable.from_csv(path)
    path.write_text(header + "sram,32,0.1,1,1,1,abc,10,0\n")
    with pytest.raises(ConfigError, match=":2"):
        CalibrationTable.from_csv(path)
    path.write_text(header)
    with pytest.raises(ConfigError):
        CalibrationTable.from_csv(path)  # no anchors at all


def test_csv_skips_comment_lines_and_counts_them(tmp_path):
    # the CLI heads its CSV files with a "# manifest: ..." line; errors name file lines
    lines = (CONFIGS / "calibration_default.csv").read_text().splitlines()
    path = tmp_path / "cal.csv"
    path.write_text("# manifest: manifest.json\n" + "\n".join(lines) + "\n")
    assert CalibrationTable.from_csv(path).anchors == CalibrationTable().anchors
    lines.insert(2, "sram,32,0.1,1,1")
    path.write_text("# manifest: manifest.json\n" + "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:4: expected 9 fields, got 5")):
        CalibrationTable.from_csv(path)
    path.write_text("# one\n# two\nnope\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:3: expected header")):
        CalibrationTable.from_csv(path)


@pytest.mark.parametrize("row,match", [
    ("sram,183.0,0.5,0.2,0.1,0.1,0.1,594.0,1e-9", "sram wer must be 0.0, got 1e-09"),
    ("mram_base,512.0,0.5,3.3,10.2,0.3,1.5,323.0,0.0",
     f"mram_base wer must be {WER_BASELINE}, got 0.0"),
    ("mram_low_voltage,512.0,0.5,3.3,10.2,0.3,1.5,323.0,8e-4",
     f"mram_low_voltage wer must be {WER_BASELINE}, got 0.0008"),
])
def test_csv_rejects_wer_other_than_the_technologys(tmp_path, row, match):
    # metrics_at_capacity reports the technology's WER, so a row that claims
    # another one would be silently ignored
    lines = (CONFIGS / "calibration_default.csv").read_text().splitlines()
    lines.insert(3, row)
    path = tmp_path / "cal.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:4: {match}")):
        CalibrationTable.from_csv(path)


@given(cap=st.floats(min_value=32.0, max_value=524288.0, allow_nan=False))
def test_interpolation_bounded_by_bracketing_anchors(cap):
    m = metrics_at_capacity(TABLE, MRAM, cap)
    anchors = TABLE.anchors_for(TechnologyKind.MRAM_BASE)
    caps = [p.capacity_kb for p in anchors]
    rls = [p.read_latency_ns for p in anchors]
    assert min(rls) <= m.read_latency_ns <= max(rls)
    assert anchors[0].area_mm2 <= m.area_mm2 <= anchors[-1].area_mm2


@given(
    c1=st.floats(min_value=32.0, max_value=524288.0, allow_nan=False),
    c2=st.floats(min_value=32.0, max_value=524288.0, allow_nan=False),
)
def test_area_and_leakage_monotone_in_capacity(c1, c2):
    lo, hi = sorted((c1, c2))
    m_lo = metrics_at_capacity(TABLE, MRAM, lo)
    m_hi = metrics_at_capacity(TABLE, MRAM, hi)
    assert m_lo.area_mm2 <= m_hi.area_mm2
    assert m_lo.leakage_mw <= m_hi.leakage_mw


def _adjacent_floats(x, k):
    """x with the k floats below and the k floats above it, ascending."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_area_and_leakage_monotone_at_ulp_scale_around_anchors():
    # the pair that once failed the property test above: 25.0 at 32.0 KB
    # became 24.999999999999996 just above it
    assert (metrics_at_capacity(TABLE, MRAM, 32.0).leakage_mw
            <= metrics_at_capacity(TABLE, MRAM, 32.00000000000001).leakage_mw)
    for anchor in TABLE.anchors_for(TechnologyKind.MRAM_BASE):
        caps = _adjacent_floats(anchor.capacity_kb, 64)
        metrics = [metrics_at_capacity(TABLE, MRAM, c) for c in caps]
        for name in ("area_mm2", "leakage_mw"):
            values = [getattr(m, name) for m in metrics]
            assert values == sorted(values), (anchor.capacity_kb, name)
            assert values[64] == getattr(anchor, name)
