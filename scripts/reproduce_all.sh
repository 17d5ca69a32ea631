#!/bin/sh
# Rebuild every bundled experiment into runs/. The three full WER sweeps
# (2000 trials each) dominate the runtime, roughly 15 minutes on 4 cores;
# everything else finishes in seconds. Each run directory gets a
# manifest.json, so any result can be replayed later with
#   spinpad rerun runs/<name>/manifest.json --out <fresh-dir>
set -e
cd "$(dirname "$0")/.."

spinpad wer-sweep --config configs/wer_sweep_quick.json --out runs/wer-quick
spinpad wer-sweep --config configs/wer_sweep_20ns.json --out runs/wer-20ns
spinpad wer-sweep --config configs/wer_sweep_10ns.json --out runs/wer-10ns
spinpad wer-sweep --config configs/wer_sweep_5ns.json --out runs/wer-5ns

spinpad array-sweep --calibration configs/calibration_default.csv \
    --out runs/array-sweep

spinpad system-compare --config configs/compare_iso_capacity.json \
    --workload configs/workload_vgg_toy.txt --out runs/compare-iso-capacity
spinpad system-compare --config configs/compare_iso_area.json \
    --workload configs/workload_vgg_toy.txt --out runs/compare-iso-area

spinpad hetero-write --config configs/hetero_write.json --out runs/hetero-write

spinpad error-train --config configs/error_train_baseline.json \
    --out runs/train-baseline
spinpad error-train --config configs/error_train_mantissa.json \
    --out runs/train-mantissa
spinpad error-train --config configs/error_train_exponent.json \
    --out runs/train-exponent

echo "done; results under runs/"
