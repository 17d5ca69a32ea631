#!/usr/bin/env python3
"""Bisect the deterministic (T = 0) switching threshold of the default cell.

Prints the bisected threshold current next to the analytic critical
current; with a long pulse the two should agree within a few percent.
"""

import argparse

from spinpad.magnetics import MagSimConfig, MtjDevice, find_switching_threshold


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=200.0,
                    help="pulse duration ns (long pulses approach I_c0)")
    ap.add_argument("--lo", type=float, default=20.0, help="bracket low, uA")
    ap.add_argument("--hi", type=float, default=100.0, help="bracket high, uA")
    ap.add_argument("--probes", type=int, default=16,
                    help="amplitudes laid over the bracket per bisection round")
    ap.add_argument("--rounds", type=int, default=2,
                    help="bisection rounds (cost is at most probes * rounds runs)")
    args = ap.parse_args()

    device = MtjDevice(temperature_k=0.0)
    cfg = MagSimConfig(time_step_ps=1.0, seed=5)
    threshold = find_switching_threshold(
        device, args.duration, cfg, args.lo, args.hi,
        probes=args.probes, rounds=args.rounds)
    print(f"threshold at {args.duration} ns: {threshold:.3f} uA "
          f"(at most {args.probes * args.rounds} integrations)")
    print(f"analytic critical current:       "
          f"{device.critical_current_ua:.3f} uA")


if __name__ == "__main__":
    main()
