"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.install` replaces public functions of the spinpad layers with
timing wrappers, each one in the module where its caller looks the name
up: `cli` imports the magnetics, dataflow, energy and errortrain entry
points by name, `energy` imports `simulate_iteration` and the arraymodel
queries by name, `errortrain` calls `train_with_errors` and
`inject_tensor` through its own globals, and `magnetics._sweep_point`
calls `estimate_psw` through its globals.  Nothing under src/ changes.

Spans stay in memory.  ProcessPoolExecutor workers inherit the wrappers
when they fork, but have no exit hook, so a worker appends each of its
spans to a per-process spool file as soon as the call returns; `drain`
collects both.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

from spinpad.errortrain import EXPONENT_BITS


def _pulse_steps(duration_ns: float, cfg) -> int:
    """Pulse plus relax steps of one trial, as magnetics counts them."""
    return (max(1, round(duration_ns * 1000.0 / cfg.time_step_ps))
            + round(cfg.relax_time_ns * 1000.0 / cfg.time_step_ps))


# Counters read from a call's arguments and result.  Each takes the result
# first, then the wrapped function's own parameters.

def _count_psw(result, device, pulse, cfg, rng=None):
    return {"trial_steps": cfg.trials * _pulse_steps(pulse.duration_ns, cfg)}


def _count_threshold(result, device, duration_ns, cfg, lo_ua, hi_ua,
                     probes=16, rounds=2):
    return {"trial_steps": probes * rounds * _pulse_steps(duration_ns, cfg)}


def _count_sweep(result, device, amplitudes_ua, durations_ns, cfg, workers=1):
    return {"workers": max(1, workers)}


def _count_train(result, spec, dataset, binding):
    return {"epochs": result.epochs_completed, "diverged": int(result.diverged),
            "batches_per_epoch": math.ceil(len(dataset.x_train) / spec.batch_size)}


def _count_inject(result, values, cfg, rng):
    out, stats = result
    bits = ((cfg.sign_wer > 0) + len(EXPONENT_BITS) * (cfg.exponent_wer > 0)
            + cfg.affected_mantissa_bits * (cfg.mantissa_wer > 0))
    # the write event's stream key is (kind, epoch, batch, layer)
    key = rng.bit_generator.seed_seq.spawn_key
    return {"elements": out.size, "bit_draws": out.size * bits,
            "bit_flips": stats.bit_flips, "sanitized": stats.sanitized,
            "minibatch": [key[1], key[2]]}


def _count_trace(result, workload, cfg):
    return {"dram_elements": result.dram_elements(),
            "cycles": result.total_cycles()}


def _count_main(result, argv=None):
    argv = list(argv or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    size = sum(p.stat().st_size for p in out.iterdir()) if out and out.is_dir() else 0
    return {"bytes_written": size}


# (module the caller looks the name up in, name, layer, kind, counter).
# run_experiment has no figure of its own: its span keeps dataset
# generation out of cli.self_s.
PATCHES = (
    ("spinpad.cli", "main", "cli", "main", _count_main),
    ("spinpad.cli", "run_wer_sweep", "magnetics", "sweep", _count_sweep),
    ("spinpad.magnetics", "estimate_psw", "magnetics", "psw", _count_psw),
    ("spinpad.magnetics", "find_switching_threshold", "magnetics", "threshold",
     _count_threshold),
    ("spinpad.cli", "fit_ln_wer", "magnetics", "fit", None),
    ("spinpad.cli", "amplitude_ladder", "magnetics", "fit", None),
    ("spinpad.cli", "load_workload", "dataflow", "parse", None),
    ("spinpad.energy", "simulate_iteration", "dataflow", "trace", _count_trace),
    ("spinpad.energy", "metrics_at_capacity", "arraymodel", "array", None),
    ("spinpad.energy", "capacity_at_area", "arraymodel", "array", None),
    ("spinpad.energy", "estimate_energy", "energy", "estimate", None),
    ("spinpad.cli", "compare_iso_capacity", "energy", "compare", None),
    ("spinpad.cli", "compare_iso_area", "energy", "compare", None),
    ("spinpad.cli", "run_experiment", "errortrain", "experiment", None),
    ("spinpad.errortrain", "train_with_errors", "errortrain", "train", _count_train),
    ("spinpad.errortrain", "inject_tensor", "errortrain", "inject", _count_inject),
)


class Tracer:
    """In-memory span recorder; one per traced process tree."""

    def __init__(self, spool: Path):
        self.pid = os.getpid()
        self.spool = spool
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def wrap(self, fn, layer: str, kind: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{os.getpid()}.{next(self._ids)}"
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            result, failed = None, True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                span = {"id": sid, "parent": parent, "layer": layer, "kind": kind,
                        "t0": t0, "t1": t1, "failed": failed, "n": {}}
                if count is not None and not failed:
                    span["n"] = count(result, *args, **kwargs)
                # counting runs inside the caller's span; charge it to this one
                span["hook_s"] = time.perf_counter() - t1
                self._record(span)
        return traced

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
        else:
            with open(self.spool / f"spans-{os.getpid()}.jsonl", "a") as fh:
                fh.write(json.dumps(span) + "\n")

    def install(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        for module, name, layer, kind, count in PATCHES:
            mod = importlib.import_module(module)
            original = getattr(mod, name)
            self._undo.append((mod, name, original))
            setattr(mod, name, self.wrap(original, layer, kind, count))

    def uninstall(self) -> None:
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)

    def drain(self) -> list[dict]:
        """Every span recorded since the last drain, workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return spans


# ------------------------------------------------------- per-layer figures

def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the time its direct children (and their counting) took."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += _dur(s) + s["hook_s"]
    return {s["id"]: _dur(s) - child[s["id"]] for s in spans}


def _minibatches(train: dict, injects: list[dict]) -> int:
    """Minibatches a training run started.

    Completed epochs contribute every batch; a run that diverged also
    started the batches of its last epoch that reached an injection point.
    """
    n = train["n"]
    steps = n["epochs"] * n["batches_per_epoch"]
    if n["diverged"]:
        steps += len({tuple(s["n"]["minibatch"]) for s in injects
                      if s["n"]["minibatch"][0] == n["epochs"]})
    return steps


def op_figures(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer figures of one operation, plus the samples for percentiles."""
    kinds = defaultdict(list)
    for s in spans:
        kinds[s["kind"]].append(s)
    selfs = _self_times(spans)

    def total(kind, field=None):
        return sum(s["n"].get(field, 0) if field else _dur(s) for s in kinds[kind])

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    points = kinds["psw"] + kinds["threshold"]
    point_s = sum(_dur(s) for s in points)
    steps = total("psw", "trial_steps") + total("threshold", "trial_steps")
    mag = [s for s in spans if s["layer"] == "magnetics"]

    injects_by_train = defaultdict(list)
    for s in kinds["inject"]:
        injects_by_train[s["parent"]].append(s)
    minibatches = sum(_minibatches(t, injects_by_train[t["id"]])
                      for t in kinds["train"] if t["n"])
    train_s, inject_s = total("train"), total("inject")
    compare_self = sum(selfs[s["id"]] for s in kinds["compare"])

    figures = {
        "magnetics.calls": len(mag),
        "magnetics.busy_s": point_s + total("fit"),
        "magnetics.trial_steps": steps,
        "magnetics.trial_steps_per_s": ratio(steps, point_s),
        "magnetics.fit_s": total("fit"),
        "magnetics.failed": sum(s["failed"] for s in mag),
        "magnetics.wait_s": (sum(s["n"].get("workers", 1) * _dur(s)
                                 for s in kinds["sweep"]) - total("psw")
                             if kinds["sweep"] else 0.0),
        "errortrain.runs": len(kinds["train"]),
        "errortrain.train_s": train_s,
        "errortrain.self_s": train_s - inject_s,
        "errortrain.minibatch_steps": minibatches,
        "errortrain.steps_per_s": ratio(minibatches, train_s),
        "errortrain.inject_calls": len(kinds["inject"]),
        "errortrain.inject_s": inject_s,
        "errortrain.inject_share": ratio(inject_s, train_s),
        "errortrain.inject_elements": total("inject", "elements"),
        "errortrain.bit_draws_per_s": ratio(total("inject", "bit_draws"), inject_s),
        "errortrain.bit_flips": total("inject", "bit_flips"),
        "errortrain.sanitized": total("inject", "sanitized"),
        "errortrain.diverged_runs": total("train", "diverged"),
        "dataflow.traces": len(kinds["trace"]),
        "dataflow.busy_s": total("trace") + total("parse"),
        "dataflow.dram_elements": total("trace", "dram_elements"),
        "dataflow.cycles": total("trace", "cycles"),
        "energy.estimates": len(kinds["estimate"]),
        "energy.busy_s": total("estimate") + compare_self,
        "energy.compare_points": len(kinds["compare"]),
        "energy.compare_self_s": compare_self,
        "energy.failed_points": sum(s["failed"] for s in kinds["compare"]),
        "arraymodel.calls": len(kinds["array"]),
        "arraymodel.busy_s": total("array"),
        "cli.self_s": sum(selfs[s["id"]] for s in kinds["main"]),
        "cli.bytes_written": total("main", "bytes_written"),
    }
    samples = {"magnetics.point_s": [_dur(s) for s in points],
               "dataflow.trace_s": [_dur(s) for s in kinds["trace"]]}
    return figures, samples
