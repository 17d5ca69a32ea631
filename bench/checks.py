"""Output checks for each workload, against oracles independent of the timed call.

Each check takes the plan entry of one top-level call (and whatever the
call returned) and returns a list of problems; an empty list is a pass.
A call with any problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# A tail probability below this for an observed count is a failed check.
# A hundred mc-thermal runs make a few hundred point checks; a correct
# program trips one of them with probability below 1e-3.
BINOMIAL_ALPHA = 1e-6
# The reference p is itself an estimate; widen the band by this many of
# its standard errors on either side.
REFERENCE_SIGMAS = 4.0


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(K <= k) for K ~ Binomial(n, p)."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    return min(1.0, sum(math.comb(n, i) * p**i * (1.0 - p)**(n - i)
                        for i in range(k + 1)))


def binomial_band_ok(k: int, n: int, p_ref: float, n_ref: int) -> bool:
    """k successes in n trials is plausible for some p near p_ref.

    p ranges over p_ref +- REFERENCE_SIGMAS standard errors of the
    reference; k passes unless it sits in the far tail for every such p.
    """
    sd = math.sqrt(max(p_ref * (1.0 - p_ref), 1.0 / n_ref) / n_ref)
    p_lo = max(0.0, p_ref - REFERENCE_SIGMAS * sd)
    p_hi = min(1.0, p_ref + REFERENCE_SIGMAS * sd)
    # k low: most plausible at p_lo; k high: most plausible at p_hi
    lower_tail = _binom_cdf(k, n, p_lo)                              # P(K <= k | p_lo)
    upper_tail = 1.0 - _binom_cdf(k - 1, n, p_hi) if k > 0 else 1.0  # P(K >= k | p_hi)
    return lower_tail >= BINOMIAL_ALPHA and upper_tail >= BINOMIAL_ALPHA


# ------------------------------------------------------------ mc-thermal

def ln_wer_fit(rows: list[dict]) -> tuple[float, float, float, int]:
    """Slope, intercept, R^2 and point count of ln(1 - p) against amplitude.

    Closed-form least squares over the post-onset points, 0.5 <= p < 1,
    the points the program's ln(WER) fit is defined on.
    """
    pts = [(float(r["amplitude_uA"]), math.log(1.0 - float(r["p_switch"])))
           for r in rows if 0.5 <= float(r["p_switch"]) < 1.0]
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    syy = sum((y - my) ** 2 for _, y in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else sxy * sxy / (sxx * syy)
    return slope, my - slope * mx, r2, n


def check_wer_sweep(call: dict, plan: dict) -> list[str]:
    out = Path(call["out"])
    ref = json.loads((HERE / "reference.json").read_text())
    problems = []
    rows = read_csv(out / "sweep.csv")
    if len(rows) != len(ref["p_switch"]):
        problems.append(f"sweep.csv has {len(rows)} points, expected "
                        f"{len(ref['p_switch'])}")
    for row in rows:
        amp, n, p = float(row["amplitude_uA"]), int(row["trials"]), float(row["p_switch"])
        p_ref = ref["p_switch"].get(repr(amp))
        if p_ref is None:
            problems.append(f"unexpected amplitude {amp}")
            continue
        k = round(p * n)
        if not binomial_band_ok(k, n, p_ref, ref["trials"]):
            problems.append(f"p_switch {p} at {amp} uA outside the binomial "
                            f"band of reference {p_ref}")
    expected = ln_wer_fit(rows)
    for fit in json.loads((out / "ladder.json").read_text())["durations"]:
        got = (fit["slope_per_ua"], fit["intercept"], fit["r_squared"], fit["n_points"])
        if not all(math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)
                   for g, e in zip(got, expected)):
            problems.append(f"fit (slope, intercept, R^2, points) {got} differs "
                            f"from the least-squares fit of sweep.csv {expected}")
        amps = [step["amplitude_ua"] for step in
                sorted(fit["ladder"], key=lambda s: -s["target_wer"])]
        if not all(b > a for a, b in zip(amps, amps[1:])):
            problems.append(f"ladder does not rise strictly: {amps}")
    return problems


# --------------------------------------------------------------- mc-cold

def axial_threshold_ua(device, duration_ns: float, time_step_ps: float,
                       relax_ns: float, lo_ua: float, hi_ua: float,
                       rounds: int = 3, probes: int = 41) -> float:
    """Switching threshold of the T = 0 axial ODE, by grid refinement.

    With no thermal field, uniaxial anisotropy and a collinear polarizer
    the macrospin reduces to dm_z/dt = g/(1+a^2) (1 - m_z^2)(a H_k m_z - a_j)
    with a_j = a H_k I / I_c0.  This integrates that scalar ODE with the
    same Heun step, initial tilt 1/sqrt(2 Delta), pulse and relax windows
    as the program, counting a trial switched once m_z < -0.5.  Only the
    device's raw parameters are read; H_k and I_c0 are derived here.
    """
    volume = device.fl_thickness_nm * device.lateral_x_nm * device.lateral_y_nm * 1e-21
    barrier = device.thermal_stability * 1.380649e-16 * 300.0
    hk = 2.0 * barrier / (device.saturation_magnetization_emu_cc * volume)
    i_c0 = device.thermal_stability / device.stt_efficiency_kbt_per_ua
    alpha = device.damping
    pre = device.gyromagnetic_ratio_oe / (1.0 + alpha * alpha)
    dt = time_step_ps * 1e-12
    n_pulse = max(1, round(duration_ns * 1000.0 / time_step_ps))
    n_relax = round(relax_ns * 1000.0 / time_step_ps)
    mz0 = math.cos(1.0 / math.sqrt(2.0 * device.thermal_stability))

    def switched(amps: np.ndarray) -> np.ndarray:
        aj = alpha * hk * amps / i_c0
        mz = np.full(len(amps), mz0)
        crossed = np.zeros(len(amps), dtype=bool)
        for steps, drive in ((n_pulse, aj), (n_relax, 0.0 * aj)):
            for _ in range(steps):
                k1 = pre * (1.0 - mz * mz) * (alpha * hk * mz - drive)
                p = mz + dt * k1
                k2 = pre * (1.0 - p * p) * (alpha * hk * p - drive)
                mz = mz + 0.5 * dt * (k1 + k2)
                crossed |= mz < -0.5
        return crossed

    for _ in range(rounds):
        grid = np.linspace(lo_ua, hi_ua, probes)
        hit = switched(grid)
        if hit[0] or not hit[-1]:
            raise ValueError("oracle bracket does not straddle the threshold")
        first = int(np.argmax(hit))
        lo_ua, hi_ua = float(grid[first - 1]), float(grid[first])
    return 0.5 * (lo_ua + hi_ua)


def check_threshold(call: dict, plan: dict, threshold: float,
                    oracle_ua: float) -> list[str]:
    t = plan["threshold"]
    # the program's answer is the midpoint of its final bracket
    width = (t["hi_ua"] - t["lo_ua"]) / (t["probes"] - 1) ** t["rounds"]
    if abs(threshold - oracle_ua) <= width:
        return []
    return [f"threshold {threshold} uA is more than one final bracket "
            f"({width:.4f} uA) from the axial-ODE threshold {oracle_ua:.4f} uA"]


# ---------------------------------------------------------- train-inject

def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())["seeds"]


def check_error_train(call: dict, plan: dict, reference: dict) -> list[str]:
    """Acceptance check 13, one config at a time.

    reference maps each training seed to the error-free TrainingResult that
    errortrain.train_reference gives; the baseline config must equal it
    bit for bit, and the injected configs are judged against its mean.
    """
    out = Path(call["out"])
    summary = _summary(out)
    seeds = plan["train_seeds"]
    base_mean = float(np.mean([reference[s].final_accuracy for s in seeds]))
    problems = []
    if sorted(summary) != sorted(str(s) for s in seeds):
        return [f"summary seeds {sorted(summary)} != {seeds}"]
    if call["name"] == "baseline":
        curves = read_csv(out / "curves.csv")
        for s in seeds:
            rows = [r for r in curves if int(r["seed"]) == s]
            loss = [float(r["train_loss"]) for r in rows]
            acc = [float(r["test_accuracy"]) for r in rows]
            if loss != reference[s].train_loss or acc != reference[s].test_accuracy:
                problems.append(f"seed {s}: zero binding differs from train_reference")
    elif call["name"] == "mantissa":
        finals = [summary[str(s)]["final_accuracy"] for s in seeds]
        if any(summary[str(s)]["diverged"] for s in seeds):
            problems.append("mantissa 1e-3 diverged")
        if abs(float(np.mean(finals)) - base_mean) > 2.0:
            problems.append(f"mantissa 1e-3 mean accuracy {np.mean(finals)} is "
                            f"more than 2 points from baseline {base_mean}")
    else:
        for s in seeds:
            r = summary[str(s)]
            if not (r["diverged"] or base_mean - r["final_accuracy"] > 10.0):
                problems.append(f"exponent 1e-2 seed {s} neither diverged nor "
                                f"collapsed ({r['final_accuracy']} vs {base_mean})")
    return problems


# ------------------------------------------------------------ system-dse

def check_system_compare(call: dict, plan: dict) -> list[str]:
    rows = read_csv(Path(call["out"]) / "compare.csv")
    if not rows:
        return ["compare.csv has no rows"]
    return [f"point {r['index']} ({r['sweep_value']}): {r['status']} {r['detail']}"
            for r in rows if r["status"] != "ok"]


def dram_rises(call: dict) -> list[list]:
    """Adjacent capacities at which DRAM traffic rises with more buffer.

    Each entry is [tech, capacity_kb, dram, next_capacity_kb, next_dram].
    The FIFO eviction model does not guarantee monotone traffic, so these
    are reported, not failed.
    """
    rows = [r for r in read_csv(Path(call["out"]) / "compare.csv") if r["status"] == "ok"]
    rises = []
    for side in ("a", "b"):
        pts = sorted((float(r[f"capacity_{side}_kb"]), int(r[f"dram_elements_{side}"]))
                     for r in rows)
        rises += [[side, c0, d0, c1, d1]
                  for (c0, d0), (c1, d1) in zip(pts, pts[1:]) if d1 > d0]
    return rises
