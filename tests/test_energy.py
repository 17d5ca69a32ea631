import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinpad.arraymodel import (
    ArrayMetrics,
    CalibrationTable,
    MemoryTechnology,
    metrics_at_capacity,
)
from spinpad.dataflow import (
    AcceleratorConfig,
    AccessTrace,
    Conv,
    FullyConnected,
    Phase,
    Store,
    simulate_iteration,
)
from spinpad.energy import (
    EXPONENT_BITS,
    MANTISSA_BITS,
    SIGN_BITS,
    WORD_BITS,
    SegmentMap,
    SystemEnergyConfig,
    compare_iso_area,
    compare_iso_capacity,
    estimate_energy,
    hetero_write_energy,
)
from spinpad.cli import _COMMANDS, build_parser
from spinpad.errors import ConfigError, InvalidParameterError

TABLE = CalibrationTable()
SRAM = MemoryTechnology.sram()
MRAM = MemoryTechnology.mram_base()
CFG = AcceleratorConfig()
ANCHOR_CAPS = [32.0, 183.0, 512.0, 40592.0, 131072.0, 524288.0]


def toy_vgg(batch: int) -> list:
    """Six-layer VGG-ish stack used for the system-trend comparisons."""
    return [
        Conv(batch, 3, 16, 16, 16, 3, 1, 1),
        Conv(batch, 16, 16, 16, 16, 3, 1, 1),
        Conv(batch, 16, 16, 16, 32, 3, 2, 1),
        Conv(batch, 32, 8, 8, 32, 3, 1, 1),
        FullyConnected(batch, 2048, 64),
        FullyConnected(batch, 64, 10),
    ]


def flat_metrics(**overrides) -> ArrayMetrics:
    base = dict(capacity_kb=1024.0, area_mm2=1.0, read_latency_ns=1.0,
                write_latency_ns=1.0, read_energy_pj=1.0, write_energy_pj=1.0,
                leakage_mw=0.0)
    base.update(overrides)
    return ArrayMetrics(**base)


# ---------------------------------------------------------------- config

def test_system_config_defaults():
    sys = SystemEnergyConfig()
    assert sys.dram_energy_per_access_nj == 10.0
    assert sys.dram_latency_ns == 50.0
    assert sys.mac_energy_pj == 2.0
    assert sys.clock_ghz == 1.0
    assert sys.dram_burst_elements == 16


@pytest.mark.parametrize("field_name", [
    "dram_energy_per_access_nj", "dram_latency_ns", "mac_energy_pj", "clock_ghz",
])
def test_system_config_rejects_nonpositive(field_name):
    with pytest.raises(InvalidParameterError):
        SystemEnergyConfig(**{field_name: 0.0})
    with pytest.raises(InvalidParameterError):
        SystemEnergyConfig(**{field_name: -1.0})


def test_system_config_rejects_zero_burst():
    with pytest.raises(InvalidParameterError):
        SystemEnergyConfig(dram_burst_elements=0)


def load_system_config(path) -> SystemEnergyConfig:
    """The system config as system-compare loads it from its --system JSON."""
    args = build_parser().parse_args(["system-compare", "--system", str(path)])
    return _COMMANDS["system-compare"][1](args).system


def test_load_system_config_roundtrip(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"dram_energy_per_access_nj": 4.5, "clock_ghz": 2.0}))
    sys = load_system_config(path)
    assert sys.dram_energy_per_access_nj == 4.5
    assert sys.clock_ghz == 2.0
    assert sys.dram_latency_ns == 50.0  # untouched default


@pytest.mark.parametrize("body", [
    '{"dram_energy_per_access_nj": 4.5',  # malformed JSON
    '[1, 2]',  # not an object
    '{"dram_energy": 4.5}',  # unknown key
    '{"dram_latency_ns": -3.0}',  # invalid value
])
def test_load_system_config_errors(tmp_path, body):
    path = tmp_path / "system.json"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_system_config(path)


# ------------------------------------------------------- estimate_energy

def test_leakage_only_trace():
    # one buffer at 323 mW, 1000 cycles at 1 GHz = 1 us, no accesses
    trace = AccessTrace(phase_compute={Phase.FORWARD: (0, 1000)})
    act = flat_metrics(leakage_mw=323.0)
    other = flat_metrics()
    rep = estimate_energy(trace, act, other, other, SystemEnergyConfig())
    assert rep.time_ns == pytest.approx(1000.0)
    assert rep.leakage_nj == pytest.approx(323.0)
    assert rep.dram_nj == 0.0
    assert rep.onchip_nj == 0.0
    assert rep.compute_nj == 0.0
    assert rep.total_nj == pytest.approx(323.0)


def test_dram_energy_linearity():
    sys = SystemEnergyConfig()
    m = flat_metrics()
    t1 = AccessTrace({(Phase.FORWARD, Store.DRAM): [960, 0]})
    t2 = AccessTrace({(Phase.FORWARD, Store.DRAM): [1920, 0]})
    r1 = estimate_energy(t1, m, m, m, sys)
    r2 = estimate_energy(t2, m, m, m, sys)
    assert r2.dram_nj == pytest.approx(2.0 * r1.dram_nj, rel=1e-12)
    # 960 elements / 16 per burst = 60 accesses at 10 nJ
    assert r1.dram_nj == pytest.approx(600.0)


def test_onchip_energy_uses_per_buffer_metrics():
    trace = AccessTrace({(Phase.FORWARD, Store.ACTIVATION): [100, 50],
                         (Phase.FORWARD, Store.WEIGHT): [10, 0]})
    act = flat_metrics(read_energy_pj=2.0, write_energy_pj=3.0)
    wt = flat_metrics(read_energy_pj=7.0)
    err = flat_metrics()
    rep = estimate_energy(trace, act, wt, err, SystemEnergyConfig())
    assert rep.onchip_nj == pytest.approx((100 * 2.0 + 50 * 3.0 + 10 * 7.0) / 1e3)


def test_compute_energy_from_macs():
    trace = AccessTrace(phase_compute={Phase.FORWARD: (5000, 10)})
    m = flat_metrics()
    rep = estimate_energy(trace, m, m, m, SystemEnergyConfig(mac_energy_pj=2.0))
    assert rep.compute_nj == pytest.approx(10.0)


def test_breakdown_additivity_and_nonnegative():
    trace = simulate_iteration(toy_vgg(8), CFG)
    m = metrics_at_capacity(TABLE, MRAM, 1024.0)
    rep = estimate_energy(trace, m, m, m, SystemEnergyConfig())
    assert rep.total_nj == pytest.approx(sum(rep.components().values()), rel=1e-9)
    assert all(v >= 0 for v in rep.components().values())
    for name in ("dram_nj", "onchip_nj", "leakage_nj", "compute_nj", "time_ns"):
        per_phase_sum = sum(getattr(pe, name) for pe in rep.per_phase.values())
        assert getattr(rep, name) == pytest.approx(per_phase_sum, rel=1e-9)


def test_time_model():
    """Fully serialized time: cycles at the one clock, DRAM bursts, latencies."""
    totals = {}
    flat = flat_metrics()

    def time_ns(act=flat, **sys):
        cfg = SystemEnergyConfig(dram_latency_ns=50.0, **sys)
        tr = AccessTrace(dict(totals), {Phase.FORWARD: (0, 1000)})
        return estimate_energy(tr, act, flat, flat, cfg).time_ns

    assert time_ns() == 1000.0
    assert time_ns(clock_ghz=4.0) == 250.0
    totals[(Phase.FORWARD, Store.DRAM)] = [1, 0]
    assert time_ns(dram_burst_elements=1) == 1050.0
    # fractional burst occupancy
    assert time_ns(dram_burst_elements=16) == pytest.approx(1000.0 + 50.0 / 16)
    totals[(Phase.FORWARD, Store.ACTIVATION)] = [3, 2]
    act = flat_metrics(read_latency_ns=2.0, write_latency_ns=5.0)
    assert time_ns(act, dram_burst_elements=1) == 1050.0 + 3 * 2.0 + 2 * 5.0
    with pytest.raises(InvalidParameterError):
        SystemEnergyConfig(dram_burst_elements=0)


@pytest.mark.parametrize("field_name", [
    "read_energy_pj", "write_energy_pj", "leakage_mw",
])
def test_energy_monotone_in_array_costs(field_name):
    trace = simulate_iteration(toy_vgg(8), CFG)
    m = metrics_at_capacity(TABLE, SRAM, 512.0)
    bumped = replace(m, **{field_name: getattr(m, field_name) * 2.0})
    sys = SystemEnergyConfig()
    base = estimate_energy(trace, m, m, m, sys).total_nj
    more = estimate_energy(trace, bumped, bumped, bumped, sys).total_nj
    assert more >= base


def test_as_dict_shape():
    trace = simulate_iteration([Conv(1, 1, 4, 4, 1, 3, 1, 0)], CFG)
    m = flat_metrics()
    rep = estimate_energy(trace, m, m, m, SystemEnergyConfig())
    d = rep.as_dict()
    assert set(d) == {"dram_nj", "onchip_nj", "leakage_nj", "compute_nj",
                      "total_nj", "time_ns", "per_phase"}
    assert set(d["per_phase"]) == {p.value for p in Phase}
    fwd = d["per_phase"]["forward"]
    assert fwd["total_nj"] == pytest.approx(
        fwd["dram_nj"] + fwd["onchip_nj"] + fwd["leakage_nj"] + fwd["compute_nj"])


# --------------------------------------------------------- iso-capacity

def test_iso_capacity_identity():
    pt = compare_iso_capacity(toy_vgg(2), CFG, 183.0, SRAM, SRAM)
    assert pt.improvement == 1.0


def test_iso_capacity_shares_one_trace():
    pt = compare_iso_capacity(toy_vgg(2), CFG, 512.0, SRAM, MRAM)
    assert pt.dram_elements_a == pt.dram_elements_b
    assert pt.capacity_a_kb == pt.capacity_b_kb == 512.0
    assert pt.report_a.time_ns != pt.report_b.time_ns  # latencies differ


def test_iso_capacity_improvement_sweep():
    # Reference system config, batch-64 toy VGG stack: the MRAM-over-SRAM
    # improvement grows with capacity as leakage takes over the budget.
    imps = [compare_iso_capacity(toy_vgg(64), CFG, c, SRAM, MRAM).improvement
            for c in ANCHOR_CAPS]
    frozen = [2.105900955193513, 3.321432359860102, 3.4700129009974314,
              8.921470488630337, 19.307769792465034, 24.138113150021823]
    assert imps == pytest.approx(frozen, rel=1e-9)
    assert all(b >= a for a, b in zip(imps, imps[1:]))
    assert all(v > 1.0 for v in imps)
    assert 2.0 <= imps[-1] <= 30.0


def test_leakage_dominates_at_large_capacity():
    pt = compare_iso_capacity(toy_vgg(64), CFG, ANCHOR_CAPS[-1], SRAM, MRAM)
    for report in (pt.report_a, pt.report_b):
        parts = report.components()
        assert max(parts, key=parts.get) == "leakage_nj"
    # compute is negligible under the reference config
    assert pt.report_a.compute_nj < 0.01 * pt.report_a.total_nj
    assert pt.report_b.compute_nj < 0.01 * pt.report_b.total_nj


def test_iso_capacity_batch_scaling_invariance_when_spilled():
    # With every tensor spilled to DRAM, access counts scale linearly in
    # batch except the batch-independent weight-gradient/update traffic,
    # so the ratio is invariant up to that vanishing contribution.
    wl_a = [Conv(32, 32, 8, 8, 32, 3, 1, 1)]
    wl_b = [Conv(64, 32, 8, 8, 32, 3, 1, 1)]
    ia = compare_iso_capacity(wl_a, CFG, 16.0, SRAM, MRAM).improvement
    ib = compare_iso_capacity(wl_b, CFG, 16.0, SRAM, MRAM).improvement
    assert ib == pytest.approx(ia, rel=1e-3)


# -------------------------------------------------------------- iso-area

def test_iso_area_identity():
    pt = compare_iso_area(toy_vgg(2), CFG, 0.5, SRAM, SRAM)
    assert pt.improvement == 1.0


def test_iso_area_capacities_at_half_mm2():
    pt = compare_iso_area(toy_vgg(8), CFG, 0.5, SRAM, MRAM)
    assert pt.capacity_a_kb == pytest.approx(183.0)
    assert pt.capacity_b_kb == pytest.approx(512.0)
    # more capacity in the same footprint -> never more DRAM traffic
    assert pt.dram_elements_b <= pt.dram_elements_a


@pytest.mark.parametrize("area_mm2", [0.1145, 0.5, 48.1, 165.0])
def test_iso_area_dram_energy_ratio(area_mm2):
    pt = compare_iso_area(toy_vgg(8), CFG, area_mm2, SRAM, MRAM)
    assert pt.report_a.dram_nj >= pt.report_b.dram_nj


def test_iso_area_improvement_grows_with_area():
    imps = [compare_iso_area(toy_vgg(8), CFG, a, SRAM, MRAM).improvement
            for a in (0.5, 48.1, 165.0)]
    frozen = [1.0462463745625992, 2.8952184863615713, 4.089252753059768]
    assert imps == pytest.approx(frozen, rel=1e-9)


# ------------------------------------------------- heterogeneous writes

def test_word_bit_layout():
    assert (SIGN_BITS, EXPONENT_BITS, MANTISSA_BITS, WORD_BITS) == (1, 8, 23, 32)


def test_segment_map_validates_mantissa_span():
    low = MemoryTechnology.mram_low_duration()
    for bad in (-1, 24):
        with pytest.raises(InvalidParameterError):
            SegmentMap(sign=MRAM, exponent=MRAM, mantissa=low,
                       mantissa_bits_on_optimized=bad)


def test_hetero_identity_mapping():
    seg = SegmentMap(sign=MRAM, exponent=MRAM, mantissa=MRAM)
    res = hetero_write_energy(seg, 0.25)
    assert res.word_energy_factor == pytest.approx(1.0)
    assert res.per_word_energy_pj == pytest.approx(32 * 0.25)
    assert res.improvement == pytest.approx(1.0)


def test_hetero_mantissa_on_optimized():
    seg = SegmentMap(sign=MRAM, exponent=MRAM,
                     mantissa=MemoryTechnology.mram_low_duration())
    res = hetero_write_energy(seg, 1.0)
    # (1 + 8 + 0.40 * 23) / 32
    assert res.word_energy_factor == pytest.approx(0.56875, abs=1e-12)
    assert res.improvement == pytest.approx(1.0 / 0.56875, rel=1e-12)


def test_hetero_partial_mantissa_span():
    low = MemoryTechnology.mram_low_duration()
    seg = SegmentMap(sign=MRAM, exponent=MRAM, mantissa=low,
                     mantissa_bits_on_optimized=16)
    # unoptimized mantissa bits ride with the exponent segment
    expected = (1 + (8 + 7) * 1.0 + 16 * 0.40) / 32
    assert seg.word_energy_factor() == pytest.approx(expected, rel=1e-12)


def test_hetero_rejects_nonpositive_bit_energy():
    seg = SegmentMap(sign=MRAM, exponent=MRAM, mantissa=MRAM)
    with pytest.raises(InvalidParameterError):
        hetero_write_energy(seg, 0.0)


@given(
    f_sign=st.floats(0.05, 1.0),
    f_exp=st.floats(0.05, 1.0),
    f_mant=st.floats(0.05, 1.0),
    n=st.integers(0, 23),
    bit_pj=st.floats(0.01, 10.0),
)
def test_hetero_word_energy_bounded(f_sign, f_exp, f_mant, n, bit_pj):
    def tech(factor):
        if factor == 1.0:
            return MemoryTechnology.mram_base()
        return MemoryTechnology.custom(1.0, factor, 8e-4)

    seg = SegmentMap(sign=tech(f_sign), exponent=tech(f_exp),
                     mantissa=tech(f_mant), mantissa_bits_on_optimized=n)
    res = hetero_write_energy(seg, bit_pj)
    lo = 32 * bit_pj * min(f_sign, f_exp, f_mant)
    hi = 32 * bit_pj * max(f_sign, f_exp, f_mant)
    assert lo * (1 - 1e-9) <= res.per_word_energy_pj <= hi * (1 + 1e-9)
