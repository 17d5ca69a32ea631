"""Seeded inputs for each benchmark workload, written before the program runs.

Everything here is stdlib-only and derived from (workload, seed) alone, so
the same seed gives byte-identical input files.  `write_plan` returns the
plan that bench/child.py executes: one entry per top-level call.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

WORKLOADS = ("mc-thermal", "mc-cold", "train-inject", "system-dse")

# mc-thermal: the bundled quick grid (configs/wer_sweep_quick.json).
MC_THERMAL_DURATION_NS = 20.0
MC_THERMAL_AMPLITUDES_UA = (50.0, 56.0, 62.0, 68.0, 74.0)
MC_THERMAL_TRIALS = 200
MC_THERMAL_MAX_WORKERS = 2

# mc-cold: the T = 0 bisection of scripts/threshold_scan.py at a 20 ns pulse.
MC_COLD = {"duration_ns": 20.0, "lo_ua": 20.0, "hi_ua": 100.0,
           "probes": 16, "rounds": 2, "time_step_ps": 1.0}

# train-inject: the three bundled error-train experiments.
_EXPERIMENT = {
    "layer_sizes": [2, 32, 32, 2], "activation": "tanh", "learning_rate": 0.2,
    "batch_size": 32, "epochs": 30, "n_train": 400, "n_test": 200,
    "noise": 0.3, "dataset_seed": 7,
}
TRAIN_BINDINGS = {
    "baseline": {},
    "mantissa": {buf: {"mantissa_wer": 1e-3}
                 for buf in ("activations", "weights", "errors")},
    "exponent": {buf: {"exponent_wer": 1e-2}
                 for buf in ("activations", "weights", "errors")},
}
TRAIN_SEEDS_PER_CONFIG = 3

# system-dse: VGG-16 at 224x224, batch 32 (pooling folded into the next
# layer's input size), and the toy VGG of configs/workload_vgg_toy.txt.
_VGG16_CONVS = ((3, 64, 224), (64, 64, 224), (64, 128, 112), (128, 128, 112),
                (128, 256, 56), (256, 256, 56), (256, 256, 56),
                (256, 512, 28), (512, 512, 28), (512, 512, 28),
                (512, 512, 14), (512, 512, 14), (512, 512, 14))
_VGG16_FCS = ((25088, 4096), (4096, 4096), (4096, 1000))
_VGG_TOY = """\
conv b=64 i=3 m=16 n=16 o=16 k=3 stride=1 pad=1
conv b=64 i=16 m=16 n=16 o=16 k=3 stride=1 pad=1
conv b=64 i=16 m=16 n=16 o=32 k=3 stride=2 pad=1
conv b=64 i=32 m=8 n=8 o=32 k=3 stride=1 pad=1
fc b=64 in=2048 out=64
fc b=64 in=64 out=10
"""
# Both ends inside the calibrated range: SRAM has no anchor below 0.1145 mm2.
ISO_CAPACITY_KB = (32.0, 524288.0, 600)
ISO_AREA_MM2 = (0.12, 165.0, 200)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}/{purpose}/{seed}")


def _jittered_log_grid(lo: float, hi: float, n: int,
                       rng: random.Random) -> list[float]:
    """n strictly increasing points in [lo, hi), one per log-spaced cell."""
    return [lo * (hi / lo) ** ((i + rng.random()) / n) for i in range(n)]


def _vgg16() -> str:
    lines = [f"conv b=32 i={i} m={m} n={m} o={o} k=3 stride=1 pad=1"
             for i, o, m in _VGG16_CONVS]
    lines += [f"fc b=32 in={i} out={o}" for i, o in _VGG16_FCS]
    return "\n".join(lines) + "\n"


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _cli_call(name: str, argv: list[str], out: Path) -> dict:
    return {"name": name, "argv": argv + ["--out", str(out)], "out": str(out)}


def write_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under `work` and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inp = work / "inputs"
    inp.mkdir(parents=True)
    out = work / "outputs"
    plan = {"workload": workload, "seed": seed, "calls": []}

    if workload == "mc-thermal":
        workers = min(MC_THERMAL_MAX_WORKERS, nproc())
        cfg = _write_json(inp / "wer_sweep.json", {
            "simulation": {"trials": MC_THERMAL_TRIALS,
                           "seed": _rng(workload, seed, "mc").randrange(2**31)},
            "durations_ns": [MC_THERMAL_DURATION_NS],
            "amplitudes_ua": list(MC_THERMAL_AMPLITUDES_UA),
            "workers": workers,
        })
        plan["workers"] = workers
        plan["calls"].append(_cli_call(
            "wer-sweep", ["wer-sweep", "--config", cfg], out / "wer-sweep"))

    elif workload == "mc-cold":
        plan["workers"] = 1
        plan["threshold"] = {**MC_COLD,
                             "seed": _rng(workload, seed, "mc").randrange(2**31)}
        plan["calls"].append({"name": "find_switching_threshold",
                              "out": str(out / "threshold")})

    elif workload == "train-inject":
        plan["workers"] = 1
        seeds = _rng(workload, seed, "train").sample(
            range(1, 10**6), TRAIN_SEEDS_PER_CONFIG)
        plan["train_seeds"] = seeds
        # seeds go in the config: `error-train --seed` keeps only one
        plan["experiment"] = {**_EXPERIMENT, "seeds": seeds}
        for name, binding in TRAIN_BINDINGS.items():
            cfg = _write_json(inp / f"error_train_{name}.json",
                              {**plan["experiment"], "binding": binding})
            plan["calls"].append(_cli_call(
                name, ["error-train", "--config", cfg], out / name))

    else:  # system-dse
        plan["workers"] = 1
        rng = _rng(workload, seed, "grid")
        vgg16 = inp / "vgg16.txt"
        vgg16.write_text(_vgg16())
        toy = inp / "vgg_toy.txt"
        toy.write_text(_VGG_TOY)
        cap = _write_json(inp / "iso_capacity.json", {
            "mode": "iso-capacity",
            "sweep": _jittered_log_grid(*ISO_CAPACITY_KB, rng)})
        area = _write_json(inp / "iso_area.json", {
            "mode": "iso-area",
            "sweep": _jittered_log_grid(*ISO_AREA_MM2, rng)})
        plan["calls"].append(_cli_call(
            "iso-capacity",
            ["system-compare", "--config", cap, "--workload", str(vgg16)],
            out / "iso-capacity"))
        plan["calls"].append(_cli_call(
            "iso-area",
            ["system-compare", "--config", area, "--workload", str(toy)],
            out / "iso-area"))

    _write_json(work / "plan.json", plan)
    return plan
