"""End-to-end acceptance checks, one numbered test per contract item.

Each test prints a single [NN] PASS/FAIL line (run with `pytest -s` to see
them on success) and enforces both the stated behavior and its runtime
budget. Checks 4 and 5 share one Monte Carlo sweep; everything else is
independent.
"""

import filecmp
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import applied_thermal_field, brute_force_gemm_counts, gradient_check

from spinpad import magnetics
from spinpad.arraymodel import (
    CalibrationTable,
    MemoryTechnology,
    capacity_at_area,
    metrics_at_capacity,
)
from spinpad.cli import main as cli_main
from spinpad.dataflow import (
    AcceleratorConfig,
    Conv,
    FullyConnected,
    Phase,
    count_phase_accesses,
    gemm_view,
    simulate_iteration,
)
from spinpad.energy import (
    SegmentMap,
    SystemEnergyConfig,
    compare_iso_capacity,
    hetero_write_energy,
)
from spinpad.errortrain import (
    BufferErrorBinding,
    ExperimentConfig,
    SegmentErrorConfig,
    TinyNetSpec,
    make_moons_dataset,
    run_experiment,
    train_reference,
)
from spinpad.magnetics import (
    MagSimConfig,
    MtjDevice,
    WerPoint,
    amplitude_ladder,
    derive_stream,
    find_switching_threshold,
    fit_ln_wer,
    run_wer_sweep,
    thermal_field_std_oe,
)

WER_BASELINE = 8.62e-10


class check:
    """Times a block, prints one PASS/FAIL line, enforces the budget."""

    def __init__(self, num: int, budget_s: float, desc: str):
        self.num, self.budget, self.desc = num, budget_s, desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed <= self.budget
        print(f"[{self.num:>2}] {'PASS' if ok else 'FAIL'} {self.desc} "
              f"({elapsed:.1f} s, budget {self.budget:.0f} s)")
        if exc_type is None and elapsed > self.budget:
            pytest.fail(f"check {self.num} exceeded its runtime budget: "
                        f"{elapsed:.1f} s > {self.budget} s")
        return False


# --- 1: write error rate is the exact complement of switching probability


def test_01_wer_identity():
    # A sweep point keeps its WER as ln_wer = ln(1 - P_sw); log1p and expm1
    # are not exact inverses, so the round trip is held to 2 ulp. Building
    # 1e6 WerPoints takes longer than the budget; 1e5 take a fifth of it.
    with check(1, 1, "ln_wer of a sweep point round-trips P_sw within 2 ulp "
                     "for 1e5 samples, monotone; WER exactly 1 and 0 at the ends"):
        p = np.random.default_rng(0).random(10**5)
        ln_wer = np.array([WerPoint(60.0, 20.0, 1000, q).ln_wer for q in p.tolist()])
        np.testing.assert_array_max_ulp(-np.expm1(ln_wer), p, maxulp=2)
        assert np.all(np.diff(ln_wer[np.argsort(p)]) <= 0.0)
        assert math.exp(WerPoint(60.0, 20.0, 1000, 0.0).ln_wer) == 1.0
        assert math.exp(WerPoint(60.0, 20.0, 1000, 1.0).ln_wer) == 0.0


# --- 2: thermal field statistics


def test_02_thermal_field_std():
    with check(2, 5, "thermal field the integrator applies: std within 2% of "
                     "closed form; 0 at T=0"):
        device = MtjDevice()
        sigma = thermal_field_std_oe(device, 1.0)
        samples = applied_thermal_field(sigma, derive_stream(7), 10**5)
        assert samples.shape == (10**5, 3)
        assert abs(samples.std() - sigma) / sigma < 0.02
        cold = thermal_field_std_oe(replace(device, temperature_k=0.0), 1.0)
        assert cold == 0.0
        assert np.all(applied_thermal_field(cold, derive_stream(7), 100) == 0.0)


# --- 3: deterministic switching threshold


def test_03_switching_threshold(monkeypatch):
    with check(3, 30, "T=0 long-pulse threshold within 5% of the critical "
                      "current in <= 50 integrations"):
        device = MtjDevice(temperature_k=0.0)
        cfg = MagSimConfig(time_step_ps=1.0, seed=5)
        integrations, step = [], magnetics._axial_switch_step
        monkeypatch.setattr(magnetics, "_axial_switch_step",
                            lambda *args: integrations.append(args) or step(*args))
        threshold = find_switching_threshold(device, 200.0, cfg, 20.0, 100.0,
                                             probes=16, rounds=2)
        assert len(integrations) <= 50
        i_c0 = device.critical_current_ua
        assert abs(threshold - i_c0) / i_c0 < 0.05


# --- 4 and 5 share one 2000-trial sweep over three pulse durations


_GRIDS = {
    20.0: np.arange(50.0, 80.0, 3.0),
    10.0: np.arange(72.0, 132.0, 6.0),
    5.0: np.arange(115.0, 265.0, 15.0),
}
_SWEEP_CACHE: dict[float, object] = {}


def _duration_curves():
    if not _SWEEP_CACHE:
        device = MtjDevice()
        cfg = MagSimConfig(trials=2000, seed=20240817)
        for duration, amps in _GRIDS.items():
            _SWEEP_CACHE[duration] = run_wer_sweep(
                device, amps, [duration], cfg, workers=4)
    return _SWEEP_CACHE


def test_04_sigmoid_and_onset():
    with check(4, 600, "fitted WER non-increasing in amplitude; onset amplitude "
                       "strictly decreases with duration (2000 trials/point)"):
        curves = _duration_curves()
        for duration, amps in _GRIDS.items():
            assert len(amps) == 10
            fit = fit_ln_wer(curves[duration], duration)
            fitted = [fit.wer_at(a) for a in amps]
            assert all(b <= a for a, b in zip(fitted, fitted[1:]))
        onsets = [curves[d].onset_amplitude(d) for d in (5.0, 10.0, 20.0)]
        assert onsets[0] > onsets[1] > onsets[2]


def test_05_ln_wer_linearity_and_ladder():
    with check(5, 600, "post-onset ln(WER) fit R^2 >= 0.9; extrapolated "
                       "amplitude ladder strictly increases toward rarer errors"):
        curves = _duration_curves()
        for duration in _GRIDS:
            fit = fit_ln_wer(curves[duration], duration)
            assert fit.r_squared >= 0.9
            ladder = amplitude_ladder(fit)
            assert WER_BASELINE in ladder
            by_rarity = [amp for _, amp in
                         sorted(ladder.items(), reverse=True)]
            assert all(b > a for a, b in zip(by_rarity, by_rarity[1:]))


# --- 6: array calibration anchors and iso-area ratios


_SRAM_CELLS = {
    183.0: (0.5, 0.2, 0.1, 0.1, 0.1, 594.0),
    40592.0: (48.1, 10.3, 5.3, 1.8, 1.4, 64257.0),
}
_MRAM_CELLS = {
    512.0: (0.5, 3.3, 10.2, 0.3, 1.5, 323.0),
    131072.0: (48.1, 14.6, 15.8, 1.6, 2.6, 14573.0),
}
_METRIC_ORDER = ("area_mm2", "read_latency_ns", "write_latency_ns",
                 "read_energy_pj", "write_energy_pj", "leakage_mw")


def test_06_array_anchors_and_iso_area_bands():
    with check(6, 1, "calibration anchors reproduced exactly; iso-area "
                     "capacity ratio in [2.8, 3.2] and leakage ratio in "
                     "[1.9, 4.4] at every shared anchored area"):
        table = CalibrationTable()
        sram = MemoryTechnology.sram()
        mram = MemoryTechnology.mram_base()
        for tech, cells in ((sram, _SRAM_CELLS), (mram, _MRAM_CELLS)):
            for cap, expected in cells.items():
                m = metrics_at_capacity(table, tech, cap)
                got = tuple(getattr(m, name) for name in _METRIC_ORDER)
                assert got == expected, (tech.kind, cap)
        sram_areas = {p.area_mm2 for p in table.anchors_for(sram.kind)}
        mram_areas = {p.area_mm2 for p in table.anchors_for(mram.kind)}
        lo = max(min(sram_areas), min(mram_areas))
        hi = min(max(sram_areas), max(mram_areas))
        shared = sorted(a for a in sram_areas | mram_areas if lo <= a <= hi)
        assert len(shared) >= 3
        slack = 0.035  # band edges are rounded to 2 significant figures
        for area in shared:
            cap_s = capacity_at_area(table, sram, area)
            cap_m = capacity_at_area(table, mram, area)
            ratio = cap_m / cap_s
            assert 2.8 * (1 - slack) <= ratio <= 3.2 * (1 + slack), (area, ratio)
            leak_s = metrics_at_capacity(table, sram, cap_s).leakage_mw
            leak_m = metrics_at_capacity(table, mram, cap_m).leakage_mw
            lratio = leak_s / leak_m
            assert 1.9 * (1 - slack) <= lratio <= 4.4 * (1 + slack), (area, lratio)


# --- 7: relaxed write mode arithmetic


def test_07_write_mode_factors():
    with check(7, 1, "relaxed write modes scale latency x0.47 and energy "
                     "x0.40 at WER 8e-4, exactly"):
        table = CalibrationTable()
        base = metrics_at_capacity(table, MemoryTechnology.mram_base(), 512.0)
        for tech in (MemoryTechnology.mram_low_voltage(),
                     MemoryTechnology.mram_low_duration()):
            assert tech.write_latency_factor == 0.47
            assert tech.write_energy_factor == 0.40
            assert tech.wer == 8e-4
            m = metrics_at_capacity(table, tech, 512.0)
            assert m.write_latency_ns == base.write_latency_ns * 0.47
            assert m.write_energy_pj == base.write_energy_pj * 0.40
            assert m.read_latency_ns == base.read_latency_ns
            assert m.wer == 8e-4


# --- 8: dataflow counts equal a brute-force loop-nest enumerator


def test_08_dataflow_oracle_equivalence():
    with check(8, 10, "per-phase access/mac/cycle counts match brute-force "
                      "loop-nest enumeration on 6 layers"):
        cases = [
            (Conv(1, 1, 4, 4, 1, 3, 1, 0), AcceleratorConfig()),
            (FullyConnected(2, 7, 5), AcceleratorConfig(rows=4, cols=4)),
            (Conv(2, 3, 9, 9, 4, 3, 2, 1), AcceleratorConfig(rows=4, cols=4)),
            (FullyConnected(8, 300, 300), AcceleratorConfig()),  # multi-tile
            (Conv(1, 2, 5, 5, 3, 2, 1, 0), AcceleratorConfig(rows=8, cols=8)),
            (FullyConnected(1, 1, 1), AcceleratorConfig()),
        ]
        gemm_phases = (Phase.FORWARD, Phase.BACKWARD_INPUT_GRAD,
                       Phase.BACKWARD_WEIGHT_GRAD)
        for layer, cfg in cases:
            for phase in gemm_phases:
                shape = gemm_view(layer, phase)
                got = count_phase_accesses(shape, cfg)
                ref = brute_force_gemm_counts(shape.m_rows, shape.k_depth,
                                              shape.n_cols, cfg.rows, cfg.cols)
                assert got.tiles == ref["tiles"], (layer, phase)
                assert got.row_reads == ref["row_reads"], (layer, phase)
                assert got.col_reads == ref["col_reads"], (layer, phase)
                assert got.result_writes == ref["writes"], (layer, phase)
                assert got.macs == ref["macs"], (layer, phase)
                assert got.cycles == ref["cycles"], (layer, phase)


# --- 9: DRAM traffic shrinks as buffers grow


def test_09_buffer_monotonicity():
    with check(9, 10, "DRAM element count non-increasing over a 6-point "
                      "capacity sweep; all-spill run touches no scratchpad"):
        workload = [
            Conv(4, 3, 8, 8, 8, 3, 1, 1),
            Conv(4, 8, 8, 8, 8, 3, 2, 1),
            FullyConnected(4, 128, 32),
            FullyConnected(4, 32, 10),
        ]
        dram = []
        for kb in (0.25, 1.0, 4.0, 16.0, 64.0, 256.0):
            cfg = AcceleratorConfig(activation_buffer_kb=kb,
                                    weight_buffer_kb=kb, error_buffer_kb=kb)
            dram.append(simulate_iteration(workload, cfg).dram_elements())
        assert all(b <= a for a, b in zip(dram, dram[1:])), dram

        one_element_kb = 4 / 1024
        cfg = AcceleratorConfig(activation_buffer_kb=one_element_kb,
                                weight_buffer_kb=one_element_kb,
                                error_buffer_kb=one_element_kb)
        trace = simulate_iteration(workload, cfg)
        for store in ("activation", "weight", "error"):
            assert all(trace.phase_reads(phase, store) == 0 for phase in Phase)
            assert all(trace.phase_writes(phase, store) == 0 for phase in Phase)


# --- 10: system-level energy trend on the reference configuration


def _toy_vgg(batch: int = 64):
    return [
        Conv(batch, 3, 16, 16, 16, 3, 1, 1),
        Conv(batch, 16, 16, 16, 16, 3, 1, 1),
        Conv(batch, 16, 16, 16, 32, 3, 2, 1),
        Conv(batch, 32, 8, 8, 32, 3, 1, 1),
        FullyConnected(batch, 2048, 64),
        FullyConnected(batch, 64, 10),
    ]


def test_10_system_energy_trend():
    with check(10, 60, "iso-capacity improvement > 1 everywhere, "
                       "non-decreasing, in [2, 30] at the top capacity; "
                       "leakage dominates at large capacity"):
        workload = _toy_vgg()
        acc = AcceleratorConfig()
        sysc = SystemEnergyConfig()
        sram = MemoryTechnology.sram()
        mram = MemoryTechnology.mram_base()
        caps = [32.0, 183.0, 512.0, 40592.0, 131072.0, 524288.0]
        points = [compare_iso_capacity(workload, acc, c, sram, mram, sys=sysc)
                  for c in caps]
        improvements = [p.improvement for p in points]
        assert all(v > 1.0 for v in improvements), improvements
        assert all(b >= a for a, b in zip(improvements, improvements[1:]))
        assert 2.0 <= improvements[-1] <= 30.0
        for report in (points[-1].report_a, points[-1].report_b):
            parts = report.components()
            assert max(parts, key=parts.get) == "leakage_nj"


# --- 11: heterogeneous per-segment write energy


def test_11_hetero_write_energy():
    # Mapped uniformly onto every store, one factor scales every scratchpad
    # write, so the system write-energy gain equals the word gain.
    with check(11, 60, "all-mantissa remap gives word factor 0.56875 "
                       "(1.758x/word), which under a uniform mapping of every "
                       "store is also the system write gain (>= 1.7x)"):
        seg = SegmentMap(sign=MemoryTechnology.mram_base(),
                         exponent=MemoryTechnology.mram_base(),
                         mantissa=MemoryTechnology.mram_low_duration(),
                         mantissa_bits_on_optimized=23)
        res = hetero_write_energy(seg, 1.0)
        assert abs(res.word_energy_factor - 0.56875) < 1e-12
        assert abs(res.improvement - 1.758241758241758) < 1e-9


# --- 12: backprop gradients


def test_12_gradient_check():
    with check(12, 10, "the trainer's backprop gradients match central "
                       "differences within 1e-4 on a 2-hidden-layer net"):
        spec = TinyNetSpec()  # (2, 32, 32, 2): two hidden layers
        ds = make_moons_dataset(40, 10, noise=0.3, seed=7)
        worst = gradient_check(spec, ds.x_train, ds.y_train)
        assert worst < 1e-4, worst


# --- 13: training resilience on the bundled task


def test_13_error_resilience():
    with check(13, 900, "zero binding is bit-identical to the baseline; "
                        "mantissa 1e-3 stays within 2 points; exponent 1e-2 "
                        "collapses or diverges on every seed"):
        base_exp = ExperimentConfig(net=TinyNetSpec(),
                                    binding=BufferErrorBinding())
        ds = base_exp.dataset()
        baseline = run_experiment(base_exp)
        for seed in base_exp.seeds:
            ref = train_reference(replace(base_exp.net, seed=seed), ds)
            assert baseline[seed].train_loss == ref.train_loss
            assert baseline[seed].test_accuracy == ref.test_accuracy
        base_mean = float(np.mean([baseline[s].final_accuracy
                                   for s in base_exp.seeds]))

        cfg = SegmentErrorConfig(mantissa_wer=1e-3)
        mantissa = replace(base_exp, binding=BufferErrorBinding(cfg, cfg, cfg))
        results = run_experiment(mantissa)
        finals = [results[s].final_accuracy for s in mantissa.seeds]
        assert all(not results[s].diverged for s in mantissa.seeds)
        assert abs(float(np.mean(finals)) - base_mean) <= 2.0, (finals, base_mean)

        cfg = SegmentErrorConfig(exponent_wer=1e-2)
        exponent = replace(base_exp, binding=BufferErrorBinding(cfg, cfg, cfg))
        results = run_experiment(exponent)
        for seed in exponent.seeds:
            r = results[seed]
            assert r.diverged or base_mean - r.final_accuracy > 10.0, (
                seed, r.final_accuracy, base_mean)


# --- 14: every command replays byte-identically from its manifest


def test_14_cli_reproducibility(tmp_path):
    with check(14, 60, "each CLI command rerun from its manifest writes "
                       "byte-identical data files"):
        quick_exp = tmp_path / "exp.json"
        quick_exp.write_text(json.dumps({
            "layer_sizes": [2, 16, 2], "epochs": 4, "seeds": [1],
            "n_train": 120, "n_test": 60,
            "binding": {"weights": {"mantissa_wer": 1e-3}},
        }))
        commands = [
            ("wer", ["wer-sweep", "--trials", "60"]),
            ("arr", ["array-sweep"]),
            ("sys", ["system-compare", "--sweep", "32.0,512.0"]),
            ("het", ["hetero-write"]),
            ("err", ["error-train", "--config", str(quick_exp)]),
        ]
        for name, argv in commands:
            out = tmp_path / name
            assert cli_main(argv + ["--out", str(out)]) == 0, argv
            replay = tmp_path / f"{name}-replay"
            assert cli_main(["rerun", str(out / "manifest.json"),
                             "--out", str(replay)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            for data_file in manifest["outputs"]:
                assert filecmp.cmp(out / data_file, replay / data_file,
                                   shallow=False), (name, data_file)
