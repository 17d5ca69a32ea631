#!/usr/bin/env python3
"""Record the p_switch reference that the mc-thermal output check compares to.

Runs the mc-thermal grid (five amplitudes at 20 ns, 300 K) through
`spinpad wer-sweep` with many more trials than one benchmark operation
uses, and writes bench/reference.json.  Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Re-record it only when a documented fix changes the physics; a speed-only
change must pass against the existing reference.
"""

import json
import sys
from pathlib import Path

from spinpad import __version__
from spinpad.cli import main as cli_main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from checks import read_csv  # noqa: E402
from inputs import (  # noqa: E402
    MC_THERMAL_AMPLITUDES_UA, MC_THERMAL_DURATION_NS, MC_THERMAL_MAX_WORKERS, nproc)

REFERENCE_SEED = 20240817
REFERENCE_TRIALS = 2000
WORK = Path(".bench_work/reference")


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    cfg = {
        "simulation": {"trials": REFERENCE_TRIALS, "seed": REFERENCE_SEED},
        "durations_ns": [MC_THERMAL_DURATION_NS],
        "amplitudes_ua": list(MC_THERMAL_AMPLITUDES_UA),
        "workers": min(MC_THERMAL_MAX_WORKERS, nproc()),
    }
    (WORK / "config.json").write_text(json.dumps(cfg))
    rc = cli_main(["wer-sweep", "--config", str(WORK / "config.json"),
                   "--out", str(WORK / "sweep")])
    if rc:
        return rc
    rows = read_csv(WORK / "sweep" / "sweep.csv")
    doc = {
        "spinpad_version": __version__,
        "duration_ns": MC_THERMAL_DURATION_NS,
        "trials": REFERENCE_TRIALS,
        "seed": REFERENCE_SEED,
        "p_switch": {row["amplitude_uA"]: float(row["p_switch"]) for row in rows},
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
