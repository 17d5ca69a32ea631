#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/bench_pairs.py --workload system-dse --base HEAD~1 --pairs 10

Run it from the root of a checkout: that checkout is the change side. The
parent side is a temporary `git worktree --detach` of --base, removed on
exit. Pair i runs `python3 bench/run.py --trace 0` on both sides with seed
--seed + i; even pairs run the parent first, odd pairs the change. Before
every run the side's src/spinpad/__pycache__ is deleted, so no run imports
bytecode compiled from other sources. The script prints, for each
end-to-end metric of BENCHMARK.json, both medians, the parent's
interquartile range and the pairs the change won, then the failed calls of
each side. It writes nothing under bench/; bench/run.py writes .bench_work/.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py result line, run from the root of `side`."""
    shutil.rmtree(side / "src" / "spinpad" / "__pycache__", ignore_errors=True)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{side}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(spec: dict, parent: list[dict], change: list[dict]) -> None:
    print(f"{'metric':12s} {'parent':>10s} {'change':>10s} {'delta':>8s} "
          f"{'parent IQR':>11s}  change wins")
    for m in spec["end_to_end"]:
        a = [r["metrics"][m["name"]]["value"] for r in parent]
        b = [r["metrics"][m["name"]]["value"] for r in change]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
        better = (lambda x, y: y < x) if m["better"] == "lower" else (lambda x, y: y > x)
        wins = sum(better(x, y) for x, y in zip(a, b))
        print(f"{m['name']:12s} {ma:10.4f} {mb:10.4f} {(mb - ma) / ma:+8.2%} "
              f"{q3 - q1:11.4f}  {wins} of {len(a)}  [{m['unit']}, bound {m['bound']:.0%}]")
    for name, runs in (("parent", parent), ("change", change)):
        print(f"{name}: {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} calls failed, per pair "
              f"{[r['failed'] for r in runs]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--base", required=True, help="git ref of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2001, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    change = Path.cwd()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    parent = Path(tempfile.mkdtemp(prefix="bench-parent-")) / "tree"
    subprocess.run(["git", "worktree", "add", "--detach", str(parent), args.base],
                   check=True, capture_output=True)
    results = {parent: [], change: []}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            for side in (parent, change) if i % 2 == 0 else (change, parent):
                results[side].append(run(side, args.workload, seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s parent "
                  f"{results[parent][-1]['metrics']['wall_s']['value']:.4f} change "
                  f"{results[change][-1]['metrics']['wall_s']['value']:.4f}", flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)], check=False)
        shutil.rmtree(parent.parent, ignore_errors=True)
    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds:g} s windows, "
          f"parent {args.base}")
    summary(spec, results[parent], results[change])
    return 0


if __name__ == "__main__":
    sys.exit(main())
