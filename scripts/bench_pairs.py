#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark workloads.

    python3 scripts/bench_pairs.py --workload train-inject system-dse --base HEAD~1

Run it from the root of a checkout: that checkout is the change side. The
parent side is a `git archive` of --base unpacked in a temporary directory,
removed on exit. For each workload in turn, pair i runs `python3
bench/run.py --trace 0` on both sides with seed --seed + i; even pairs run
the parent first, odd pairs the change. Every run has
PYTHONDONTWRITEBYTECODE=1 set, and before it the side's
src/spinpad/__pycache__, bench/__pycache__ and .bench_work are deleted, so
neither side imports bytecode or reads a file that another run left. The
script first prints the line totals of both sides' src/spinpad/*.py, as
`wc -l` counts them, and at the end one block per workload: for each end-to-end metric of
BENCHMARK.json, both medians, the parent's interquartile range and the
pairs the change won, then the failed calls of each side, then whether the
two sides printed the same data-file digests (bench/run.py's `sha256` line)
on every pair. It changes no tracked file under bench/; bench/run.py writes
.bench_work/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py result line, run from the root of `side`, with the
    digests of its sha256 line under "sha256" (None when it printed none)."""
    for stale in ("src/spinpad/__pycache__", "bench/__pycache__", ".bench_work"):
        shutil.rmtree(side / stale, ignore_errors=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode != 0:
        raise SystemExit(f"{side}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = [json.loads(line[len("sha256 "):]) for line in lines
               if line.startswith("sha256 ")]
    return {**json.loads(lines[-1]), "sha256": digests[-1] if digests else None}


def src_lines(side: Path) -> int:
    """The newlines in side's src/spinpad/*.py: the total of `wc -l`."""
    return sum(path.read_bytes().count(b"\n") for path in (side / "src/spinpad").glob("*.py"))


def summary(spec: dict, parent: list[dict], change: list[dict]) -> None:
    print(f"{'metric':12s} {'parent':>10s} {'change':>10s} {'delta':>8s} "
          f"{'parent IQR':>11s}  change wins")
    for m in spec["end_to_end"]:
        a = [r["metrics"][m["name"]]["value"] for r in parent]
        b = [r["metrics"][m["name"]]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = (statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1
                     else (a[0],) * 3)  # the quartiles every BENCH_*.json records
        better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
        wins = sum(better(x, y) for x, y in zip(a, b))
        print(f"{m['name']:12s} {ma:10.4f} {mb:10.4f} {(mb - ma) / ma:+8.2%} "
              f"{q3 - q1:11.4f}  {wins} of {len(a)}  [{m['unit']}, bound {m['bound']:.0%}]")
    for name, runs in (("parent", parent), ("change", change)):
        print(f"{name}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} calls failed, per pair "
              f"{[r['failed'] for r in runs]}")
    differ = [i + 1 for i, (x, y) in enumerate(zip(parent, change))
              if x["sha256"] is None or x["sha256"] != y["sha256"]]
    print(f"sha256: parent and change equal on {len(parent) - len(differ)} of "
          f"{len(parent)} pairs" + (f"; not on pairs {differ}" if differ else ""))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--base", required=True, help="git ref of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2001, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    change = Path.cwd()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    parent = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    results = {w: {parent: [], change: []} for w in args.workload}
    try:
        archive = subprocess.run(["git", "archive", args.base], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        lines = src_lines(parent), src_lines(change)
        print(f"src/spinpad/*.py lines: parent {lines[0]} change {lines[1]} "
              f"({lines[1] - lines[0]:+d})", flush=True)
        for workload, runs in results.items():
            for i in range(args.pairs):
                seed = args.seed + i
                for side in (parent, change) if i % 2 == 0 else (change, parent):
                    runs[side].append(run(side, workload, seed, args.seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
                      f"{runs[parent][-1]['metrics']['wall_s']['value']:.4f} change "
                      f"{runs[change][-1]['metrics']['wall_s']['value']:.4f}", flush=True)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    for workload, runs in results.items():
        print(f"\nworkload {workload}, {args.pairs} pairs, {args.seconds:g} s windows, "
              f"parent {args.base}")
        summary(spec, runs[parent], runs[change])
    return 0


if __name__ == "__main__":
    sys.exit(main())
