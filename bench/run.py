#!/usr/bin/env python3
"""spinpad benchmark: one workload, one seed, one measuring window.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a spinpad checkout; it uses the sources under
src/ and writes only under .bench_work/.  Workloads: mc-thermal, mc-cold,
train-inject, system-dse (see bench/README.md).  Every metric is printed by
name with its unit; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  The exit code is 0 when a result was printed, and 2 when the run
could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from inputs import WORKLOADS, write_plan  # noqa: E402
from speed import SpeedMeter  # noqa: E402

# Fresh interpreters timed per run, half before and half after the workload
# process, so that a short burst of host load does not set the median.
SETUP_PROBES = (4, 4)
# What a user pays before the first call: interpreter, numpy and spinpad.
PROBE = "import time, spinpad.cli; print(time.monotonic()); print(spinpad.cli.__file__)"
DEADLINE_S = 165.0


class BenchError(Exception):
    pass


def _run_group(cmd: list[str], env: dict, timeout: float, log) -> int:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from None
    finally:
        _reap_group(proc)


def _reap_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):  # pool workers of the child may outlive it briefly
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure_setup(env: dict, src: Path, probes: int) -> list[tuple[float, float]]:
    """(spawn, spinpad.cli imported) times of fresh interpreters."""
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"cannot import spinpad from {src}:\n{out.stderr}")
        ready, where = out.stdout.split()
        if not Path(where).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"spinpad imported from {where}, not from {src}")
        samples.append((t0, float(ready)))
    return samples


def percentile(values: list[float], p: int) -> float:
    """p-th percentile, inclusive method; 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def rescale(meter: SpeedMeter, ops: list[dict]) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each operation at reference speed.

    CPU time accrues on every CPU in use, so it is rescaled by their mean
    slowdown.  Wall time is rescaled by the fastest CPU's: pool.map hands
    each next point to the worker that frees first, so the worker on the
    faster CPU runs the odd point and its finish sets the wall time.  With
    one CPU both are the same.
    """
    wall, cpu = [], []
    for op in ops:
        w = c = 0.0
        for t0, t1, call_cpu in op["windows"]:
            f = meter.slowdowns(t0, t1)
            w += (t1 - t0) / min(f)
            c += call_cpu / (sum(f) / len(f))
        wall.append(w)
        cpu.append(c)
    return wall, cpu


def layer_figures(meter: SpeedMeter, traced: list[dict], units: dict) -> dict:
    """Per-layer figures: medians over the traced operations, span
    percentiles over all their spans.  Seconds and rates are rescaled to
    reference speed by the slowdown of the operation's wall time."""
    figures, samples = [], {}
    for op in traced:
        f = op["wall_s"] / rescale(meter, [op])[0][0]
        scale = {"s": 1.0 / f, "1/s": f}
        figures.append({k: v * scale.get(units.get(k), 1.0) for k, v in op["layer"].items()})
        for k, v in op["layer_samples"].items():
            samples.setdefault(k, []).extend(x / f for x in v)
    layer = {k: statistics.median(fig[k] for fig in figures) for k in figures[0]}
    for k, v in samples.items():
        layer[f"{k}.p50"] = percentile(v, 50)
    layer["magnetics.point_s.p90"] = percentile(samples["magnetics.point_s"], 90)
    return layer


def report(result: dict, meter: SpeedMeter, setup_windows: list[tuple[float, float]],
           spec: dict, trace: int) -> tuple[dict, int, int]:
    """Print the human-readable report; return (metrics, attempted, failed)."""
    calls = [c for op in result["ops"] for c in op["calls"]]
    failed = [c for c in calls if c["problems"]]
    n = result["operations"]
    untraced, traced = result["ops"][:n["untraced"]], result["ops"][n["untraced"]:]
    walls, cpus = rescale(meter, untraced)
    wall_s, cpu_s = statistics.median(walls), statistics.median(cpus)
    setup = [(t1 - t0) / meter.slowdowns(t0, t1, meter.cpus[:1])[0]
             for t0, t1 in setup_windows]
    setup_s = statistics.median(setup)
    rss = result["rss_mb"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {trace}")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    print(f"operations {n['untraced']} untraced, {n['traced']} traced: end-to-end "
          f"figures are medians over the untraced ones, per-layer figures over "
          f"the traced ones")
    print("host speed " + ", ".join(
        f"CPU {c}: {k} samples, reference loop fastest {lo * 1e6:.0f} us, "
        f"median {mid * 1e6:.0f} us" for c, (k, lo, mid) in meter.summary().items()))
    print(f"wall_s     median {wall_s:.4f} s at reference speed over {len(walls)} "
          f"untraced operations" + _high_percentile(walls) + ": "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"           host seconds: median "
          f"{statistics.median(o['wall_s'] for o in untraced):.4f} s: "
          + " ".join(f"{o['wall_s']:.3f}" for o in untraced))
    print(f"cpu_s      median {cpu_s:.4f} s at reference speed (process + reaped "
          f"workers); host CPU seconds: median "
          f"{statistics.median(o['cpu_s'] for o in untraced):.4f} s")
    print(f"peak_rss   process {rss['process']:.1f} MB, largest child "
          f"{rss['largest_child']:.1f} MB")
    print(f"setup_s    median {setup_s:.4f} s at reference speed over {len(setup)} "
          f"fresh interpreters; host seconds: median "
          f"{statistics.median(t1 - t0 for t0, t1 in setup_windows):.4f} s")
    print(f"calls      {len(calls)} attempted, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(calls):.4g})")
    for c in failed[:5]:
        print(f"FAILED {c['name']}: {c['problems'][0].strip()}")
    digests: dict[str, dict[str, set]] = {}
    for c in calls:
        for name, h in c.get("sha256", {}).items():
            digests.setdefault(c["name"], {}).setdefault(name, set()).add(h)
    print("sha256 " + json.dumps({c: {f: sorted(h) for f, h in files.items()}
                                  for c, files in digests.items()}, sort_keys=True))
    rises = {json.dumps([c["name"], *r]) for c in calls for r in c.get("dram_rises", ())}
    if rises:
        print(f"finding: DRAM elements rise with buffer capacity at {len(rises)} "
              f"adjacent sweep points, e.g. [sweep, tech, kb, dram, next kb, "
              f"next dram] {sorted(rises)[0]}")

    if trace:
        values = layer_figures(meter, traced,
                               {m["name"]: m["unit"] for m in spec["per_layer"]})
        values["trace.overhead_s"] = statistics.median(rescale(meter, traced)[0]) - wall_s
        declared = spec["per_layer"]
    else:
        values = {"wall_s": wall_s, "cpu_s": cpu_s,
                  "peak_rss_mb": max(rss["process"], rss["largest_child"]),
                  "setup_s": setup_s}
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32s} {values[m['name']]!r} {m['unit']}")
    return metrics, len(calls), len(failed)


def _high_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return f", p{p} {percentile(samples, p):.4f} s"
    return " (too few for a percentile above the median)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    try:
        if not (src / "spinpad" / "__init__.py").is_file():
            raise BenchError(f"no spinpad sources under {src}; run from a checkout root")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)

        work = root / ".bench_work" / args.workload
        shutil.rmtree(work, ignore_errors=True)
        plan = write_plan(args.workload, args.seed, work)
        # The workload runs pinned to as many CPUs as it has workers, each
        # sampled by the speed meter; the setup probes run on the first.
        allowed = sorted(os.sched_getaffinity(0))
        use = allowed[:plan["workers"]]
        with SpeedMeter(use) as meter:
            os.sched_setaffinity(0, use[:1])  # this thread; children inherit it
            measure_setup(env, src, 1)  # warms the bytecode cache; not counted
            setup = measure_setup(env, src, SETUP_PROBES[0])
            os.sched_setaffinity(0, use)
            with open(work / "child.log", "w") as log:
                rc = _run_group([sys.executable, str(HERE / "child.py"), str(work),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)],
                                env, DEADLINE_S - (time.monotonic() - t_start), log)
            if rc != 0:
                tail = (work / "child.log").read_text()[-3000:]
                raise BenchError(f"workload process exited with {rc}:\n{tail}")
            os.sched_setaffinity(0, use[:1])
            setup += measure_setup(env, src, SETUP_PROBES[1])
        result = json.loads((work / "result.json").read_text())
        # the workload process sees only the CPUs it was pinned to
        result["env"]["nproc"] = len(allowed)
        result["env"]["cpus_pinned"] = use
        metrics, attempted, failed = report(result, meter, setup, spec, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
