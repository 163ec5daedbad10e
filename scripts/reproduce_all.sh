#!/usr/bin/env bash
# Runs every bench binary with its default parameters: the experiments
# E1..E11 and A1..A7 of EXPERIMENTS.md, the A8 soak, and the perf benches
# (MT with its observability-plane rows, algo kernels, dynamic). CSVs and the
# console transcript land in results/.
#
#   scripts/reproduce_all.sh [build-dir] [results-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
RESULTS_DIR="${2:-results}"
mkdir -p "$RESULTS_DIR"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

LOG="$RESULTS_DIR/bench_transcript.txt"
: > "$LOG"

for bench in "$BUILD_DIR"/bench/bench_*; do
  name="$(basename "$bench")"
  echo "===== $name =====" | tee -a "$LOG"
  "$bench" --csv="$RESULTS_DIR/$name.csv" 2>&1 | tee -a "$LOG"
  echo | tee -a "$LOG"
done

echo "done: tables in $LOG, CSVs in $RESULTS_DIR/"
