import concurrent.futures
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    applied_thermal_field,
    axial_chunked_reference,
    axial_switch_time_ns,
    heun_axial,
    heun_llg_reference,
    integrate_llg,
    threshold_all_probes,
)

from spinpad import magnetics
from spinpad.cli import _COMMANDS, build_parser
from spinpad.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidFitError,
    InvalidParameterError,
    NumericalFailureError,
)
from spinpad.magnetics import (
    KB_ERG,
    LADDER_TARGETS,
    WER_BASELINE,
    LnWerFit,
    MagSimConfig,
    MtjDevice,
    WerCurve,
    WerPoint,
    WritePulse,
    amplitude_ladder,
    derive_stream,
    derive_streams,
    estimate_psw,
    find_switching_threshold,
    fit_ln_wer,
    relative_write_energy,
    required_amplitude,
    run_wer_sweep,
    thermal_field_std_oe,
)
from spinpad.magnetics import _initial_state, _integrate_batch, _llg_chunk

# Frozen references for the default device (35x35x1 nm, Ms 1200, alpha 0.006,
# delta 55, eta 1.15 kT/uA).
VOLUME_CM3 = 1.225e-18
HK_OE = 3099.41612244898
IC0_UA = 47.82608695652174
SIGMA_1PS_300K_OE = 138.6046786992719
TILT_RAD = 1.0 / math.sqrt(110.0)  # default T = 0 tilt, 1/sqrt(2 delta)
ORACLE_DEVICE = (55.0, 1200.0, VOLUME_CM3, 0.006)  # delta, Ms, volume, alpha
STEP_NS = 1e-3

# Outputs of tests/oracles.py rk4_macrospin at dt=0.1 ps, tilt 0.0953 rad
# (too slow to rerun inline; regenerate with the oracle if these change).
RK4_CASES = [
    (2.0, 20.0, True, 8.6382),
    (0.5, 100.0, False, None),
    (1.5, 40.0, True, 15.2033),
]


def default_device(**kw):
    return MtjDevice(**kw)


def test_device_derived_quantities():
    dev = default_device()
    assert dev.volume_cm3 == pytest.approx(VOLUME_CM3, rel=1e-12)
    assert dev.anisotropy_field_oe == pytest.approx(HK_OE, rel=1e-12)
    assert dev.critical_current_ua == pytest.approx(IC0_UA, rel=1e-12)
    assert dev.barrier_erg == pytest.approx(55.0 * KB_ERG * 300.0, rel=1e-12)


def test_device_validation():
    with pytest.raises(InvalidParameterError):
        default_device(thermal_stability=19.0)
    with pytest.raises(InvalidParameterError):
        default_device(thermal_stability=101.0)
    with pytest.raises(InvalidParameterError):
        default_device(fl_thickness_nm=0.0)
    with pytest.raises(InvalidParameterError):
        default_device(saturation_magnetization_emu_cc=-1.0)
    with pytest.raises(InvalidParameterError):
        default_device(temperature_k=-5.0)
    with pytest.raises(InvalidParameterError):
        default_device(stt_efficiency_kbt_per_ua=0.0)


def test_pulse_and_config_validation():
    with pytest.raises(InvalidParameterError):
        WritePulse(-1.0, 10.0)
    with pytest.raises(InvalidParameterError):
        WritePulse(10.0, 0.0)
    for amp, dur in ((math.nan, 10.0), (math.inf, 10.0), (10.0, math.nan), (10.0, math.inf)):
        with pytest.raises(InvalidParameterError, match="finite"):
            WritePulse(amp, dur)
    with pytest.raises(InvalidParameterError):
        MagSimConfig(time_step_ps=0.0)
    with pytest.raises(InvalidParameterError):
        MagSimConfig(time_step_ps=11.0)
    with pytest.raises(InvalidParameterError):
        MagSimConfig(trials=0)
    with pytest.raises(InvalidParameterError):
        MagSimConfig(relax_time_ns=-1.0)
    for tilt in (math.nan, math.inf, -0.1, math.pi / 2, 2.0):
        with pytest.raises(InvalidParameterError, match="initial_tilt_rad"):
            MagSimConfig(initial_tilt_rad=tilt)
    assert MagSimConfig(initial_tilt_rad=0.0).initial_tilt_rad == 0.0


def test_initial_tilt_rejected_above_zero_kelvin():
    cfg = MagSimConfig(trials=4, initial_tilt_rad=0.5)
    with pytest.raises(InvalidParameterError, match="initial_tilt_rad"):
        _integrate_batch(default_device(), np.full(4, 60.0), 1.0, cfg, [derive_stream(1)])


def test_thermal_field_std_frozen_value():
    dev = default_device()
    assert thermal_field_std_oe(dev, 1.0) == pytest.approx(
        SIGMA_1PS_300K_OE, rel=1e-9
    )


def test_thermal_field_std_scaling():
    dev = default_device()
    s1 = thermal_field_std_oe(dev, 1.0)
    # sigma ~ 1/sqrt(dt): quartering the step doubles the field
    assert thermal_field_std_oe(dev, 0.25) == pytest.approx(2.0 * s1, rel=1e-12)
    dev0 = default_device(temperature_k=0.0)
    assert thermal_field_std_oe(dev0, 1.0) == 0.0


def test_thermal_field_samples_match_std():
    # the field _llg_chunk applies at the sigma _integrate_batch hands it
    rng = derive_stream(123, 0)
    h = applied_thermal_field(thermal_field_std_oe(default_device(), 1.0), rng, 100_000)
    assert h.shape == (100_000, 3)
    assert np.std(h) == pytest.approx(SIGMA_1PS_300K_OE, rel=0.02)
    assert abs(np.mean(h)) < 0.02 * SIGMA_1PS_300K_OE
    dev0 = default_device(temperature_k=0.0)
    assert np.all(applied_thermal_field(thermal_field_std_oe(dev0, 1.0), rng, 10) == 0.0)


@pytest.mark.parametrize("mult,duration_ns,switched,t_ref", RK4_CASES)
def test_zero_temp_switching_matches_rk4_oracle(mult, duration_ns, switched, t_ref):
    dev = default_device(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=1.0, seed=1)
    res = integrate_llg(dev, WritePulse(mult * IC0_UA, duration_ns), cfg, derive_stream(1))
    assert res.switched is switched
    if switched:
        assert res.switch_time_ns == pytest.approx(t_ref, rel=0.02)
        closed = axial_switch_time_ns(*ORACLE_DEVICE, mult * IC0_UA, 1.15, TILT_RAD)
        assert abs(res.switch_time_ns - closed) <= STEP_NS
    else:
        assert res.switch_time_ns is None


def test_zero_temp_batch_matches_non_retiring_heun():
    """Retiring rows that can no longer switch changes no T = 0 outcome."""
    dev = default_device(temperature_k=0.0)
    amps = np.linspace(20.0, 100.0, 33)
    switched, times = _integrate_batch(dev, amps, 20.0, MagSimConfig(time_step_ps=1.0),
                                       None)
    ref = [heun_axial(*ORACLE_DEVICE, a, 1.15, 20.0, TILT_RAD) for a in amps]
    # the grid spans all three regimes: below I_c0 cos(tilt) the drive cannot
    # move m_z down, above it but below the 20 ns threshold the pulse is too
    # short, and above the threshold the trial switches
    floor = IC0_UA * math.cos(TILT_RAD)
    assert any(a < floor for a in amps)
    assert any(a > floor and not s for a, (s, _) in zip(amps, ref))
    assert any(s for s, _ in ref)
    assert switched.tolist() == [s for s, _ in ref]
    for t, (s, t_ref) in zip(times, ref):
        if s:
            assert abs(t - t_ref) <= STEP_NS
        else:
            assert np.isnan(t)


# (duration_ns, time_step_ps, relax_time_ns, initial_tilt_rad): every value of
# each axis, without the full product, whose long cases the array reference
# takes seconds each to integrate
_ORACLE_CASES = [
    (1.0, 0.5, 5.0, None),
    (5.0, 0.5, 0.0, 1.2),
    (5.0, 1.0, 0.0, None),
    (20.0, 1.0, 5.0, 0.02),
    (20.0, 10.0, 0.0, 1.2),
    (1.0, 10.0, 5.0, 1.2),
    (200.0, 10.0, 0.0, 0.02),
    (200.0, 1.0, 5.0, None),
]


@pytest.mark.parametrize("duration_ns,time_step_ps,relax_time_ns,tilt", _ORACLE_CASES)
def test_zero_temp_batch_matches_chunked_reference_bitwise(duration_ns, time_step_ps,
                                                           relax_time_ns, tilt):
    """One scalar loop per distinct amplitude gives the chunked array path's
    (switched, times) bit for bit."""
    dev = default_device(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=time_step_ps, relax_time_ns=relax_time_ns,
                       initial_tilt_rad=tilt)
    floor = IC0_UA * math.cos(TILT_RAD if tilt is None else tilt)
    grid = floor * np.r_[0.0, 0.5, 0.999, 1.0 + np.geomspace(1e-9, 30.0, 24)]
    amps = np.r_[grid, grid[[1, 8, 8, 20, 20]]]
    switched, times = _integrate_batch(dev, amps, duration_ns, cfg, None)
    ref_switched, ref_times = axial_chunked_reference(dev, amps, duration_ns, cfg)
    assert switched.tobytes() == ref_switched.tobytes()
    assert times.tobytes() == ref_times.tobytes()
    # all three regimes: below the floor, too short to switch, switching
    assert any(not s for a, s in zip(amps, switched) if a > floor)
    assert switched.any()


@pytest.mark.parametrize("amp,time_step_ps,tilt", [
    (1e7, 10.0, None),  # the first step leaves [-1, 1] above +1
    (5e4, 10.0, None),  # the second step crosses and leaves [-1, 1] below -1
    (4.5e5, 1.0, 0.02),  # the third step does
])
def test_zero_temp_blow_up_raises(amp, time_step_ps, tilt):
    dev = default_device(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=time_step_ps, initial_tilt_rad=tilt)
    with pytest.raises(NumericalFailureError, match="m_z left"):
        _integrate_batch(dev, np.array([amp]), 20.0, cfg, None)
    with pytest.raises(ArithmeticError), np.errstate(all="ignore"):
        axial_chunked_reference(dev, np.array([amp]), 20.0, cfg)


def test_zero_temp_repeated_amplitudes_share_one_result():
    dev = default_device(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=1.0)
    grid = np.linspace(20.0, 100.0, 17)
    switched, times = _integrate_batch(dev, np.repeat(grid, 7), 20.0, cfg, None)
    one_switched, one_times = _integrate_batch(dev, grid, 20.0, cfg, None)
    assert switched.tobytes() == np.repeat(one_switched, 7).tobytes()
    assert times.tobytes() == np.repeat(one_times, 7).tobytes()
    cfg = MagSimConfig(trials=20000, seed=4)
    assert [estimate_psw(dev, WritePulse(a, 20.0), cfg) for a in (40.0, 90.0)] == [0.0, 1.0]


def test_zero_temp_is_seed_independent():
    dev = default_device(temperature_k=0.0)
    pulse = WritePulse(2.0 * IC0_UA, 20.0)
    a = integrate_llg(dev, pulse, MagSimConfig(seed=1), derive_stream(1))
    b = integrate_llg(dev, pulse, MagSimConfig(seed=99), derive_stream(99))
    assert a == b


def test_zero_amplitude_never_switches():
    dev = default_device(temperature_k=0.0)
    res = integrate_llg(dev, WritePulse(0.0, 10.0), MagSimConfig(seed=3), derive_stream(3))
    assert not res.switched


def test_psw_increases_with_amplitude():
    dev = default_device()
    cfg = MagSimConfig(trials=200, seed=7)
    p_low = estimate_psw(dev, WritePulse(60.0, 10.0), cfg)
    p_high = estimate_psw(dev, WritePulse(150.0, 10.0), cfg)
    assert p_low <= 0.3
    assert p_high >= 0.95
    assert p_low < p_high


def wer_point(p_switch):
    return WerPoint(60.0, 20.0, 1000, p_switch)


def test_wer_from_psw_identities():
    # a point's WER is exp(ln_wer); log1p and expm1 invert to within an ulp
    assert math.exp(wer_point(0.0).ln_wer) == 1.0
    assert math.exp(wer_point(1.0).ln_wer) == 0.0
    rng = np.random.default_rng(5)
    p = rng.random(1000)
    ln_wer = np.array([wer_point(q).ln_wer for q in p.tolist()])
    np.testing.assert_array_max_ulp(-np.expm1(ln_wer), p, maxulp=2)
    with pytest.raises(InvalidParameterError):
        wer_point(-0.1)
    with pytest.raises(InvalidParameterError):
        wer_point(1.1)


def test_werpoint_ln_wer():
    pt = WerPoint(100.0, 10.0, 1000, 0.75)
    assert pt.ln_wer == pytest.approx(math.log(0.25), rel=1e-12)
    assert WerPoint(100.0, 10.0, 1000, 1.0).ln_wer == -np.inf
    with pytest.raises(InvalidParameterError):
        WerPoint(100.0, 10.0, 1000, 1.5)
    with pytest.raises(InvalidParameterError):
        WerPoint(100.0, 10.0, 0, 0.5)


def _exact_line_curve(slope=-0.2, intercept=8.0, duration=10.0):
    """Points sampled from ln WER = slope*A + intercept, plus off-window ones."""
    pts = []
    for a in [40.0, 43.0] + [44.0 + 4.0 * i for i in range(10)]:
        wer = min(1.0, math.exp(slope * a + intercept))
        pts.append(WerPoint(a, duration, 10_000, 1.0 - wer))
    pts.append(WerPoint(200.0, duration, 10_000, 1.0))  # saturated, excluded
    return WerCurve(pts)


def test_fit_recovers_exact_line():
    curve = _exact_line_curve()
    fit = fit_ln_wer(curve, 10.0)
    assert fit.n_points == 10
    assert fit.slope_per_ua == pytest.approx(-0.2, rel=1e-9)
    assert fit.intercept == pytest.approx(8.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.ln_wer_at(50.0) == pytest.approx(-2.0, rel=1e-9)
    assert fit.wer_at(50.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_required_amplitude_frozen_value():
    fit = fit_ln_wer(_exact_line_curve(), 10.0)
    assert required_amplitude(fit, 1e-9) == pytest.approx(143.61632918473205, rel=1e-9)
    with pytest.raises(InvalidParameterError):
        required_amplitude(fit, 0.0)
    with pytest.raises(InvalidParameterError):
        required_amplitude(fit, 1.0)


def test_fit_needs_three_post_onset_points():
    pts = [WerPoint(50.0, 10.0, 100, 0.6), WerPoint(60.0, 10.0, 100, 0.9)]
    with pytest.raises(InsufficientDataError):
        fit_ln_wer(WerCurve(pts), 10.0)
    with pytest.raises(InsufficientDataError):
        fit_ln_wer(_exact_line_curve(), 99.0)  # no such duration


def test_fit_rejects_nonnegative_slope():
    pts = [
        WerPoint(50.0, 10.0, 100, 0.9),
        WerPoint(60.0, 10.0, 100, 0.7),
        WerPoint(70.0, 10.0, 100, 0.55),
    ]
    with pytest.raises(InvalidFitError):
        fit_ln_wer(WerCurve(pts), 10.0)


def test_onset_amplitude():
    curve = _exact_line_curve()
    assert curve.onset_amplitude(10.0) == 44.0  # first point with psw >= 0.5
    low = WerCurve([WerPoint(10.0, 10.0, 100, 0.1)])
    with pytest.raises(InsufficientDataError):
        low.onset_amplitude(10.0)


def test_amplitude_ladder_monotone():
    fit = fit_ln_wer(_exact_line_curve(), 10.0)
    ladder = amplitude_ladder(fit)
    assert set(ladder) == set(LADDER_TARGETS) | {WER_BASELINE}
    ordered = [ladder[t] for t in sorted(ladder, reverse=True)]
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
    assert ladder[WER_BASELINE] > ladder[1e-9]


def test_relative_write_energy():
    base = WritePulse(100.0, 10.0)
    assert relative_write_energy(base, base) == 1.0
    assert relative_write_energy(WritePulse(200.0, 10.0), base) == pytest.approx(4.0)
    assert relative_write_energy(WritePulse(100.0, 20.0), base) == pytest.approx(2.0)
    assert relative_write_energy(WritePulse(200.0, 20.0), base) == pytest.approx(8.0)


def test_wer_sweep_deterministic():
    dev = default_device()
    cfg = MagSimConfig(trials=100, seed=42)
    amps = [90.0, 120.0]
    a = run_wer_sweep(dev, amps, [10.0], cfg)
    b = run_wer_sweep(dev, amps, [10.0], cfg)
    assert a.points == b.points
    assert all(0.0 <= pt.p_switch <= 1.0 for pt in a.points)
    assert [pt.amplitude_ua for pt in a.points] == amps


def test_wer_sweep_parallel_matches_serial():
    dev = default_device()
    cfg = MagSimConfig(trials=100, seed=42)
    serial = run_wer_sweep(dev, [90.0, 120.0], [10.0], cfg, workers=1)
    parallel = run_wer_sweep(dev, [90.0, 120.0], [10.0], cfg, workers=2)
    assert serial.points == parallel.points


# Two durations short enough that switching is still under way several
# 512-step chunks in, so each point's active row count changes from chunk
# to chunk; the 260 uA, 4 ns point runs out of rows while the others go on.
_LAYOUT_AMPS = [180.0, 220.0, 260.0]
_LAYOUT_DURATIONS = [2.0, 4.0]
_LAYOUT_CFG = MagSimConfig(trials=40, seed=5, relax_time_ns=0.5)
# p_switch of that grid as the point-by-point sweep computed it before
# points of one duration were integrated as one batch
_LAYOUT_PSW = [0.0, 0.075, 0.525, 0.85, 0.975, 1.0]


def test_wer_sweep_matches_per_point_streams():
    """Grouping points into batches consumes each point's stream as alone."""
    dev = default_device()
    grid = [(a, d) for d in _LAYOUT_DURATIONS for a in _LAYOUT_AMPS]
    alone = [estimate_psw(dev, WritePulse(a, d), _LAYOUT_CFG,
                          derive_stream(_LAYOUT_CFG.seed, i))
             for i, (a, d) in enumerate(grid)]
    for workers in (1, 2, 3):
        curve = run_wer_sweep(dev, _LAYOUT_AMPS, _LAYOUT_DURATIONS, _LAYOUT_CFG,
                              workers=workers)
        assert [(p.amplitude_ua, p.duration_ns) for p in curve.points] == grid
        assert [p.p_switch for p in curve.points] == alone, workers


@pytest.mark.parametrize("workers,amps,durations,pool_sizes", [
    (8, [180.0, 220.0, 260.0], [0.02], [3]),  # three tasks
    (8, [220.0], [0.02], []),  # one task runs here, with no pool
    (2, [180.0, 220.0, 260.0], [0.02, 0.03], [2]),  # four tasks on two workers
    (2, [50.0, 56.0, 62.0, 68.0, 74.0], [0.02], [2]),  # {50, 56} | {62, 68, 74}
    (2, [260.0, 180.0, 240.0, 220.0, 200.0], [0.02], [2]),  # unsorted config order
    (3, [220.0, 180.0, 220.0, 180.0, 260.0], [0.02], [3]),  # duplicate amplitudes
    (4, [260.0, 180.0, 220.0], [0.02], [3]),  # more workers than amplitudes
    (4, [180.0, 190.0, 200.0, 210.0, 220.0, 230.0], [0.02], [4]),  # blocks 1, 1, 2, 2
    (2, [], [0.02], []),  # no amplitudes: no task and an empty curve
])
def test_wer_sweep_pool_sized_to_its_tasks(monkeypatch, workers, amps, durations,
                                           pool_sizes):
    sizes = []
    tasks_run = []

    class RecordingPool:
        """Records the pool size asked for and the amplitudes of each task,
        and runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            for task in tasks:
                done = fn(task)
                tasks_run.append([p.amplitude_ua for _, p in done])
                yield done

    cfg = MagSimConfig(trials=2, seed=9, relax_time_ns=0.0)
    serial = run_wer_sweep(default_device(), amps, durations, cfg)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    pooled = run_wer_sweep(default_device(), amps, durations, cfg, workers=workers)
    assert sizes == pool_sizes
    assert pooled.points == serial.points
    assert len(pooled.points) == len(amps) * len(durations)
    if not sizes:  # the tasks ran here, with no pool to record them
        return
    # each duration's points in min(workers, amplitudes) contiguous amplitude
    # blocks whose sizes differ by at most one, the larger at the high end
    groups = min(workers, len(amps))
    assert len(tasks_run) == groups * len(durations)
    for d in range(len(durations)):
        blocks = tasks_run[d * groups:(d + 1) * groups]
        assert sum(blocks, []) == sorted(amps)
        lengths = [len(b) for b in blocks]
        assert lengths == sorted(lengths) and lengths[-1] - lengths[0] <= 1


def test_wer_sweep_pinned_p_switch():
    curve = run_wer_sweep(default_device(), _LAYOUT_AMPS, _LAYOUT_DURATIONS,
                          _LAYOUT_CFG)
    assert [p.p_switch for p in curve.points] == _LAYOUT_PSW


def test_batch_switch_steps_pinned():
    """Switch steps of the first 8 trials of each 4 ns point, batched together
    (-1: no switch), as each point integrated alone gave them before."""
    pinned = [[2566, 3874, 3936, 3457, -1, 2747, -1, 3019],
              [1672, 2978, 3626, 2294, 3218, 2793, 2949, 2243],
              [1643, 2115, 2109, 2203, 2133, 1658, 2420, 2092]]
    trials = _LAYOUT_CFG.trials
    rngs = [derive_stream(_LAYOUT_CFG.seed, i) for i in (3, 4, 5)]
    _, times = _integrate_batch(default_device(), np.repeat(_LAYOUT_AMPS, trials),
                                4.0, _LAYOUT_CFG, rngs)
    steps = np.where(np.isnan(times), -1, np.round(times * 1e3)).astype(int)
    assert steps.reshape(3, trials)[:, :8].tolist() == pinned


# 2**130 has five 32-bit words, more than SeedSequence's 4-word pool, so
# the spawn key is not padded onto a full pool but mixed in after a word
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1, 2**130])
def test_derive_streams_table_matches_seed_sequence(seed):
    keys = [(kind, epoch, batch, layer) for kind in (2, 5) for epoch in (0, 29)
            for batch in (0, 12) for layer in (0, 2)]
    keys += [(6, 2**32 - 1, 0, 1), (0, 0, 0, 0)]
    stream = derive_streams(seed, keys)
    for key in keys:
        rng = stream(*key)
        assert rng.bit_generator.seed_seq.spawn_key == key
        want = np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(2, np.uint64), want)
        assert np.array_equal(rng.random(5), derive_stream(seed, *key).random(5))
    with pytest.raises(InvalidParameterError):
        derive_streams(seed, [(1, 2**32)])  # SeedSequence would split it in two words
    with pytest.raises(InvalidParameterError):
        derive_streams(-1 - seed, keys)


def test_derive_streams_restarts_each_stream():
    # re-keying drops what the last stream left behind: Philox's buffered
    # words and the half word kept for 32-bit draws
    stream = derive_streams(7, [(1, 2), (3, 4)])
    for key in [(1, 2), (3, 4), (1, 2)]:
        got = stream(*key).integers(2**32, size=3, dtype=np.uint32)
        want = derive_stream(7, *key).integers(2**32, size=3, dtype=np.uint32)
        assert np.array_equal(got, want)


def _chunk_args(aj, mz=None, steps=300):
    """Arguments of a 3-point, 4-rows-per-point _llg_chunk call at 300 K.

    Each call derives fresh streams, so two calls draw the same noise.
    mz, if given, replaces the thermal initial states by tilts in one plane.
    """
    dev = default_device()
    rngs = [derive_stream(11, i) for i in range(3)]
    mx, my, mz0 = (np.concatenate(c)
                   for c in zip(*(_initial_state(dev, r, 4) for r in rngs)))
    if mz is not None:
        st = np.sqrt(1.0 - mz * mz)
        mx, my, mz0 = 0.6 * st, 0.8 * st, mz
    alpha = dev.damping
    return (rngs, thermal_field_std_oe(dev, 1.0), dev.anisotropy_field_oe, alpha,
            dev.gyromagnetic_ratio_oe / (1.0 + alpha * alpha), 1e-12,
            (mx, my, mz0, np.repeat(np.arange(3), 4)), aj, steps)


_CHUNK_AJ = 0.006 * HK_OE * np.repeat([60.0, 100.0, 140.0], 4) / IC0_UA


def _chunk_rows(args, keep):
    """_chunk_args with only the rows `keep` of the 12 still active."""
    args = list(args)
    if keep is not None:
        args[6] = tuple(s[keep] for s in args[6])
        if np.ndim(args[7]):
            args[7] = args[7][keep]
    return args


@pytest.mark.parametrize("aj,mz,steps,keep", [
    (_CHUNK_AJ, None, 300, None),  # per-row drive
    (0.0, None, 300, None),  # relaxation: the torque terms are skipped
    (_CHUNK_AJ, np.linspace(-0.2, -0.45, 12), 150, None),  # crossings after block 1
    (_CHUNK_AJ, None, 150, [0, 1, 2, 3, 8, 9, 10, 11]),  # point 1 has no active row
    (_CHUNK_AJ, None, 150, [0, 1, 2, 3, 5, 8, 9, 10]),  # 4, 1 and 3 rows
    (_CHUNK_AJ, None, 150, [6]),  # one row: the sums over components at width 1
], ids=["drive", "relax", "crossing", "empty-point", "unequal-points", "one-row"])
def test_llg_chunk_matches_per_component_reference_bitwise(aj, mz, steps, keep):
    (mx, my, mz_end, _), first = _llg_chunk(*_chunk_rows(_chunk_args(aj, mz, steps), keep))
    (rx, ry, rz, _), rfirst = heun_llg_reference(
        *_chunk_rows(_chunk_args(aj, mz, steps), keep))
    assert len(mz_end) == (12 if keep is None else len(keep))
    for got, ref in ((mx, rx), (my, ry), (mz_end, rz)):
        assert got.tobytes() == ref.tobytes()
    assert first.tolist() == rfirst.tolist()
    if mz is not None:
        assert first.max() > 64 and steps % 64


@pytest.mark.parametrize("bad", [(np.nan, 0.0, 1.0), (0.0, 0.0, 0.0)],
                         ids=["nan", "collapsed"])
def test_llg_chunk_blow_up_raises(bad):
    args = list(_chunk_args(_CHUNK_AJ))
    mx, my, mz, point = (a.copy() for a in args[6])
    mx[5], my[5], mz[5] = bad
    args[6] = (mx, my, mz, point)
    with pytest.raises(NumericalFailureError, match="unit sphere"):
        _llg_chunk(*args)


@pytest.mark.parametrize("streams", [0, 3], ids=["no-streams", "rows-not-a-multiple"])
def test_integrate_batch_rejects_streams_that_do_not_split_the_rows(streams):
    rngs = [derive_stream(1, i) for i in range(streams)]
    with pytest.raises(InvalidParameterError, match="4 rows do not split .* over "
                       f"{streams} streams"):
        _integrate_batch(default_device(), np.full(4, 60.0), 0.01, MagSimConfig(trials=4),
                         rngs)


def count_integrations(monkeypatch):
    """Record the drive aj of every T = 0 amplitude integrated from now on."""
    drives, step = [], magnetics._axial_switch_step
    monkeypatch.setattr(magnetics, "_axial_switch_step",
                        lambda *args: drives.append(args[4]) or step(*args))
    return drives


def test_find_switching_threshold_requires_zero_temp():
    dev = default_device()
    with pytest.raises(InvalidParameterError):
        find_switching_threshold(dev, 100.0, MagSimConfig(seed=1), 20.0, 100.0)


@pytest.mark.parametrize("kw,error,match", [
    ({"rounds": 0}, InvalidParameterError, "rounds >= 1"),
    ({"rounds": -1}, InvalidParameterError, "rounds >= 1"),
    ({"probes": 0}, InvalidParameterError, "probes >= 3"),
    ({"probes": 1}, InvalidParameterError, "probes >= 3"),
    ({"probes": 2}, InvalidParameterError, "probes >= 3"),
    ({"probes": 16.0}, ConfigError, "probes must be an integer"),
    ({"rounds": 2.0}, ConfigError, "rounds must be an integer"),
    ({"duration_ns": -5.0}, InvalidParameterError, "finite duration_ns > 0"),
    ({"duration_ns": 0.0}, InvalidParameterError, "finite duration_ns > 0"),
    ({"duration_ns": math.nan}, InvalidParameterError, "finite duration_ns > 0"),
    ({"duration_ns": math.inf}, InvalidParameterError, "finite duration_ns > 0"),
    ({"hi_ua": math.inf}, InvalidParameterError, "finite 0 <= lo_ua < hi_ua"),
    ({"hi_ua": math.nan}, InvalidParameterError, "finite 0 <= lo_ua < hi_ua"),
    ({"lo_ua": math.nan}, InvalidParameterError, "finite 0 <= lo_ua < hi_ua"),
    ({"lo_ua": -math.inf}, InvalidParameterError, "finite 0 <= lo_ua < hi_ua"),
    ({"lo_ua": 100.0, "hi_ua": 20.0}, InvalidParameterError, "finite 0 <= lo_ua < hi_ua"),
])
def test_find_switching_threshold_rejects_searches_that_cannot_run(monkeypatch, kw, error, match):
    dev = default_device(temperature_k=0.0)
    drives = count_integrations(monkeypatch)
    args = {"duration_ns": 20.0, "lo_ua": 20.0, "hi_ua": 100.0, **kw}
    with pytest.raises(error, match=match):
        find_switching_threshold(dev, cfg=MagSimConfig(seed=1), **args)
    assert drives == []


# integrations: 2 ends, then per round the interior probes up to the first switch
@pytest.mark.parametrize("duration_ns,lo,hi,probes,rounds,integrations", [
    (20.0, 20.0, 100.0, 16, 2, 15),  # the mc-cold benchmark case
    (200.0, 20.0, 100.0, 16, 2, 13),  # acceptance check 3
    (5.0, 20.0, 400.0, 16, 2, 12),
    (10.0, 20.0, 200.0, 7, 3, 8),
    (20.0, 20.0, 100.0, 3, 4, 6),
])
def test_find_switching_threshold_matches_all_probes_oracle(monkeypatch, duration_ns, lo, hi,
                                                            probes, rounds, integrations):
    dev = default_device(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=1.0, seed=5)
    expected = threshold_all_probes(dev, duration_ns, cfg, lo, hi, probes, rounds)
    drives = count_integrations(monkeypatch)
    assert find_switching_threshold(dev, duration_ns, cfg, lo, hi, probes=probes,
                                    rounds=rounds) == expected
    assert len(set(drives)) == len(drives) == integrations


@pytest.mark.parametrize("lo,hi,integrations", [
    (20.0, 40.0, 1),  # hi does not switch
    (80.0, 100.0, 2),  # hi switches, and so does lo
])
def test_find_switching_threshold_rejects_a_bracket_that_does_not_straddle(monkeypatch, lo, hi,
                                                                          integrations):
    dev = default_device(temperature_k=0.0)
    drives = count_integrations(monkeypatch)
    with pytest.raises(InvalidParameterError, match="does not straddle"):
        find_switching_threshold(dev, 20.0, MagSimConfig(time_step_ps=1.0), lo, hi)
    assert len(drives) == integrations


def test_load_device_config(tmp_path):
    """The device and simulation sections load through the wer-sweep config."""
    def load(path):
        args = build_parser().parse_args(["wer-sweep", "--config", str(path)])
        cfg = _COMMANDS["wer-sweep"][1](args)
        return cfg.device, cfg.simulation

    path = tmp_path / "dev.json"
    path.write_text(json.dumps({
        "device": {"thermal_stability": 60.0, "temperature_k": 250.0},
        "simulation": {"trials": 500, "seed": 7},
    }))
    dev, cfg = load(path)
    assert dev.thermal_stability == 60.0
    assert dev.temperature_k == 250.0
    assert dev.damping == 0.006  # untouched default
    assert cfg.trials == 500
    assert cfg.seed == 7

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"device": {"nonsense": 1.0}}))
    with pytest.raises(ConfigError):
        load(bad)
    bad.write_text(json.dumps({"mystery": {}}))
    with pytest.raises(ConfigError):
        load(bad)
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load(bad)


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_wer_psw_complement_property(p):
    ln_wer = wer_point(p).ln_wer
    w = math.exp(ln_wer)
    assert 0.0 <= w <= 1.0
    assert w == pytest.approx(1.0 - p, rel=1e-14, abs=0.0)
    assert abs(-math.expm1(ln_wer) - p) <= 2 * math.ulp(p)


@given(
    scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    amp=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    dur=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
)
def test_write_energy_quadratic_in_amplitude(scale, amp, dur):
    base = WritePulse(amp, dur)
    scaled = WritePulse(scale * amp, dur)
    assert relative_write_energy(scaled, base) == pytest.approx(scale**2, rel=1e-9)


@given(
    t1=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
    t2=st.floats(min_value=1.0, max_value=400.0, allow_nan=False),
)
def test_thermal_field_monotone_in_temperature(t1, t2):
    lo, hi = sorted((t1, t2))
    s_lo = thermal_field_std_oe(default_device(temperature_k=lo), 1.0)
    s_hi = thermal_field_std_oe(default_device(temperature_k=hi), 1.0)
    assert s_lo <= s_hi


@given(
    slope=st.floats(min_value=-1.0, max_value=-0.01, allow_nan=False),
    intercept=st.floats(min_value=1.0, max_value=20.0, allow_nan=False),
    t1=st.floats(min_value=1e-12, max_value=0.5, allow_nan=False),
    t2=st.floats(min_value=1e-12, max_value=0.5, allow_nan=False),
)
@settings(max_examples=50)
def test_required_amplitude_monotone_in_target(slope, intercept, t1, t2):
    fit = LnWerFit(10.0, slope, intercept, 1.0, 5)
    lo, hi = sorted((t1, t2))
    # rarer targets need at least as much drive
    assert required_amplitude(fit, lo) >= required_amplitude(fit, hi)
