"""Host-speed meter: how fast each CPU the workload runs on is right now.

On a shared host the same instructions can take from 1.0x to 1.9x their
fastest time, switching within seconds and drifting over minutes, so plain
seconds of a CPU-bound call measure the host as much as the program.  The
meter runs one thread per CPU in use, pinned to that CPU, which every
INTERVAL_S times a fixed reference loop, with warm caches, by its own
thread CPU time.  The workload process is pinned to the same CPUs, so the
reference loop sees the speed the workload sees.  A call's seconds divided by the mean
reference time during the call, times REFERENCE_S, are its seconds at
reference speed: what the call would take on a core running the
reference loop in REFERENCE_S.  bench/run.py decides how the factors of
several CPUs combine.

The meter lives in bench/run.py, not in the workload process, so the
program runs unmodified; it takes about 2% of each CPU it samples.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

# Seconds between samples on each CPU.
INTERVAL_S = 0.02
# Thread CPU seconds of one warm reference loop at reference speed: about
# its median time beside a running workload on the 2-vCPU guest described
# in bench/README.md.  Only a scale; it cancels when two runs on one host
# are compared.
REFERENCE_S = 1.6e-4
# A call shorter than the sampling interval is charged the samples nearest
# to it, at least this many per CPU.
MIN_SAMPLES = 3

_X = np.linspace(0.1, 0.9, 16)


def reference_loop() -> float:
    """Small-array numpy arithmetic and interpreter work, the mix that
    dominates the workloads' calls."""
    x = _X.copy()
    s = 0
    for i in range(30):
        x = x * 0.999 + np.sqrt(np.abs(x)) * 1e-3
        s += i * i
    return float(x[0]) + s


class SpeedMeter:
    """Samples the reference loop on each CPU of `cpus` until stopped."""

    def __init__(self, cpus: list[int]):
        self.cpus = list(cpus)
        self._times: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._costs: dict[int, list[float]] = {c: [] for c in self.cpus}
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(c,), daemon=True)
                         for c in self.cpus]

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        times, costs = self._times[cpu], self._costs[cpu]
        while not self._stop.wait(INTERVAL_S):
            # The first pass refills the caches the workload took over, so
            # the timed second pass is slowed as the workload's hot loops are.
            reference_loop()
            t = time.monotonic()
            c0 = time.thread_time()
            reference_loop()
            costs.append(time.thread_time() - c0)
            times.append(t)

    def __enter__(self) -> "SpeedMeter":
        for th in self._threads:
            th.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for th in self._threads:
            th.join()

    def slowdowns(self, t0: float, t1: float, cpus: list[int] | None = None) -> list[float]:
        """Mean reference time over [t0, t1] (time.monotonic) on each CPU of
        `cpus` (default: all sampled), relative to REFERENCE_S."""
        factors = []
        for cpu in cpus if cpus is not None else self.cpus:
            times, costs = self._times[cpu], self._costs[cpu]
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
                if lo > 0:
                    lo -= 1
                if hi < len(times) and hi - lo < MIN_SAMPLES:
                    hi += 1
            if hi == lo:
                raise RuntimeError(f"no host-speed samples on CPU {cpu}")
            factors.append(sum(costs[lo:hi]) / (hi - lo) / REFERENCE_S)
        return factors

    def summary(self) -> dict[int, tuple[int, float, float]]:
        """Per CPU: sample count, fastest and median reference time."""
        out = {}
        for cpu in self.cpus:
            c = sorted(self._costs[cpu])
            out[cpu] = (len(c), c[0], c[len(c) // 2]) if c else (0, 0.0, 0.0)
        return out
