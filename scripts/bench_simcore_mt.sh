#!/usr/bin/env bash
# Regenerate BENCH_simcore_mt.json: Release-build the threads x n scaling
# benchmark and run it on the full grid: threads 1,2,4,8 x n 1e3..1e6 with
# no plane attached, plus the metrics, trace and perf plane rows at one
# thread for every n (the perf row's vs_off is the median of paired runs).
#
#   scripts/bench_simcore_mt.sh [--quick] [build-dir] [bench args...]
#
# --quick shrinks the grid (threads 1,2,4 x n 1e4,1e5, fewer rounds) for a
# fast sanity pass — a couple of minutes instead of the full sweep — and
# writes the same BENCH_simcore_mt.json. Extra arguments after the build
# dir are passed through to the bench, e.g.
#   scripts/bench_simcore_mt.sh build --threads=1,2
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK_ARGS=()
if [ "${1:-}" = "--quick" ]; then
  QUICK_ARGS=(--sizes=10000,100000 --threads=1,2,4 --rounds=20)
  shift
fi

BUILD_DIR="${1:-build}"
shift || true

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_simcore_mt
"$BUILD_DIR/bench/bench_simcore_mt" --json=BENCH_simcore_mt.json \
  ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} "$@"
