#!/usr/bin/env bash
# Run every workload of BENCHMARK.json once, one process each, from the
# repository root: bash perfbench/run_all.sh [--seed N] [--seconds S] [--trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in train-desk track-desk train-noimm; do
    python3 perfbench/run.py --workload "$workload" "$@"
done
