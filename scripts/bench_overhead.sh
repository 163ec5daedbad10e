#!/usr/bin/env bash
# Regenerate BENCH_obs_overhead.json: Release-build the observability
# overhead benchmark and run it. The "perf" rows must hold >= 95% of the
# "off" rows' rounds/sec (plane compiled in but not attached), and every
# row's rounds/sec is a floor that scripts/check.sh perf gates against.
#
#   scripts/bench_overhead.sh [build-dir]    (default: build)
# Extra arguments after the build dir are passed through to the bench, e.g.
#   scripts/bench_overhead.sh build --sizes=1000 --repeats=5
#
# Before committing the regenerated file, floor each row's rounds_per_sec
# over a few quiet-machine runs (and drop the per-run vs_off/budget
# verdicts) so the check.sh perf >5% gate compares against a true per-row
# floor rather than one run's noise — see "baseline_policy" in the file.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
shift || true

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_obs_overhead
"$BUILD_DIR/bench/bench_obs_overhead" \
  --json=BENCH_obs_overhead.json "$@"
