"""One benchmark run of one workload, in a fresh process.

    python3 bench/child.py WORK_DIR --seconds S --trace 0|1

bench/run.py starts this with PYTHONPATH pointing at the checkout's src/.
It reads WORK_DIR/plan.json (written by bench/inputs.py), runs the
workload's operations closed-loop with a single client, checks every
output, and writes WORK_DIR/result.json.

An operation is one pass over the plan's top-level calls; a new one starts
only while it is expected to end within the measuring window.  With
--trace 1 the first half of the window runs untraced and the second half
traced, so the per-layer figures and the tracing overhead come from the
same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import spinpad
import spinpad.cli
import spinpad.magnetics
from spinpad.errortrain import experiment_from_dict, train_reference

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from spans import Tracer, op_figures  # noqa: E402

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_s() -> float:
    """User + system seconds of this process and its reaped workers."""
    return sum(r.ru_utime + r.ru_stime for r in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def _digests(out: Path) -> dict[str, str]:
    """sha256 of every data file; manifest.json carries a timestamp."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


class Workload:
    """The plan's calls, their oracles and their output checks."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.name = plan["workload"]
        self.oracle = None
        if self.name == "mc-cold":
            t = plan["threshold"]
            self.oracle = checks.axial_threshold_ua(
                spinpad.magnetics.MtjDevice(temperature_k=0.0), t["duration_ns"],
                t["time_step_ps"], spinpad.magnetics.MagSimConfig().relax_time_ns,
                t["lo_ua"], t["hi_ua"])
        elif self.name == "train-inject":
            exp = experiment_from_dict(plan["experiment"])
            ds = exp.dataset()
            self.oracle = {s: train_reference(replace(exp.net, seed=s), ds)
                           for s in plan["train_seeds"]}

    def _call(self, call: dict):
        """Run one top-level call; returns what the output check needs."""
        if self.name == "mc-cold":
            t = self.plan["threshold"]
            mag = spinpad.magnetics
            return mag.find_switching_threshold(
                mag.MtjDevice(temperature_k=0.0), t["duration_ns"],
                mag.MagSimConfig(time_step_ps=t["time_step_ps"], seed=t["seed"]),
                t["lo_ua"], t["hi_ua"], probes=t["probes"], rounds=t["rounds"])
        rc = spinpad.cli.main(call["argv"])
        if rc != 0:
            raise RuntimeError(f"spinpad {call['argv'][0]} exited with {rc}")
        return None

    def _check(self, call: dict, returned) -> list[str]:
        if self.name == "mc-thermal":
            return checks.check_wer_sweep(call, self.plan)
        if self.name == "mc-cold":
            return checks.check_threshold(call, self.plan, returned, self.oracle)
        if self.name == "train-inject":
            return checks.check_error_train(call, self.plan, self.oracle)
        return checks.check_system_compare(call, self.plan)

    def op(self) -> dict:
        """One operation: every call timed, then every output checked."""
        wall = cpu = 0.0
        calls, windows = [], []
        for call in self.plan["calls"]:
            c0, t0 = _cpu_s(), time.monotonic()
            try:
                returned, error = self._call(call), None
            except Exception:
                returned, error = None, traceback.format_exc(limit=3)
            t1 = time.monotonic()
            windows.append([t0, t1, _cpu_s() - c0])
            wall += t1 - t0
            cpu += windows[-1][2]
            if returned is not None:  # the threshold is the data file of mc-cold
                out = Path(call["out"])
                out.mkdir(parents=True, exist_ok=True)
                (out / "threshold.json").write_text(
                    json.dumps({"threshold_ua": returned}) + "\n")
            if error:
                problems = [error]
            else:
                try:
                    problems = self._check(call, returned)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            rec = {"name": call["name"], "problems": problems}
            if not error:
                rec["sha256"] = _digests(Path(call["out"]))
            if self.name == "system-dse" and not error:
                rec["dram_rises"] = checks.dram_rises(call)
            calls.append(rec)
        # (start, end, CPU seconds) of each call, on the clock bench/speed.py
        # samples with, so run.py can rescale them to reference speed
        return {"wall_s": wall, "cpu_s": cpu, "windows": windows, "calls": calls}


def closed_loop(workload: Workload, t_end: float, on_op=None) -> list[dict]:
    """Operations back to back until the next one would overrun t_end."""
    ops = []
    while True:
        ops.append(workload.op())
        if on_op:
            on_op(ops[-1])
        if time.monotonic() + statistics.median(o["wall_s"] for o in ops) > t_end:
            return ops


def environment(plan: dict, workers_used: int | None) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # show_config differs by version
        blas = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "spinpad": spinpad.__version__,
        "workers_configured": plan["workers"],
    }
    if workers_used is not None:
        env["workers_used"] = workers_used
    return env


def traced_run(workload: Workload, spool: Path,
               t_end: float) -> tuple[list[dict], int]:
    """Traced operations until t_end, each with its per-layer figures and
    span samples; returns them and the most worker processes that recorded
    spans in one operation."""
    tracer = Tracer(spool)
    workers = []

    def collect(op: dict) -> None:
        spans = tracer.drain()
        pids = {s["id"].split(".")[0] for s in spans} - {str(os.getpid())}
        workers.append(len(pids))
        op["layer"], op["layer_samples"] = op_figures(spans)
        op["layer"]["dataflow.dram_rises"] = sum(
            len(c.get("dram_rises", ())) for c in op["calls"])

    tracer.install()
    try:
        traced = closed_loop(workload, t_end, collect)
    finally:
        tracer.uninstall()
    return traced, max(workers)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("work", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    plan = json.loads((args.work / "plan.json").read_text())
    workload = Workload(plan)

    t_begin = time.monotonic()
    window = args.seconds / 2 if args.trace else args.seconds
    ops = closed_loop(workload, t_begin + window)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    traced, workers_used = [], None
    if args.trace:
        traced, workers_used = traced_run(
            workload, args.work / "spool", t_begin + args.seconds)

    result = {
        "workload": plan["workload"],
        "seed": plan["seed"],
        "ops": ops + traced,
        "operations": {"untraced": len(ops), "traced": len(traced)},
        "rss_mb": {"process": own, "largest_child": kids},
        "env": environment(plan, workers_used),
    }
    (args.work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
