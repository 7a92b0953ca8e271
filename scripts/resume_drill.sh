#!/usr/bin/env bash
# Kill-and-resume drill for one grid study.
#
#   scripts/resume_drill.sh <study> <chaos-seed> [study args...]
#
# Run from the repository root after a clean run of the same grid with
# `--run-id smoke`.  Three passes under REPRO_CHAOS=<chaos-seed>:kills
# resume run `drill`; each may be SIGKILLed mid-sweep but must leave
# only whole, digest-valid cells.  A chaos-free resume must then finish
# the grid (--verify-complete), and its cells, summary.json and
# table.txt must match the clean run byte for byte.  Attempt counters
# count chaos retries and telemetry is wall-clock, so both may differ.
set -euxo pipefail

study=$1
seed=$2
shift 2
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
runs=${REPRO_RUNS:-.repro-runs}/$study

for _ in 1 2 3; do
  REPRO_CHAOS=$seed:kills python -m repro "$study" "$@" --resume drill || true
done
python -m repro "$study" "$@" --resume drill --verify-complete
diff -r --exclude='*.attempt' "$runs/smoke/cells" "$runs/drill/cells"
diff "$runs/smoke/summary.json" "$runs/drill/summary.json"
diff "$runs/smoke/table.txt" "$runs/drill/table.txt"
