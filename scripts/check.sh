#!/usr/bin/env bash
# Sanitizer gate: configure a separate sanitizer build tree, build
# everything, and run tests under the sanitizers. Any leak, overflow, UB,
# or data race aborts the run with a nonzero exit.
#
#   scripts/check.sh [build-dir]            ASan+UBSan over the full suite
#                                           (default build dir: build-asan)
#   FTC_SANITIZE=thread scripts/check.sh    TSan over the parallel round
#                                           engine tests (default build dir:
#                                           build-tsan)
#   scripts/check.sh fuzz-smoke [build-dir] short fixed-seed ftc-fuzz
#                                           campaign under ASan+UBSan
#   scripts/check.sh loss-fuzz [build-dir]  same, but every case gets a lossy
#                                           channel (--lossy): exercises the
#                                           link-impairment + transport paths
#   scripts/check.sh dynamic-fuzz [build-dir] same, but every case carries a
#                                           mutation trace (--dynamic):
#                                           exercises the dynamic-clustering
#                                           path against the DynamicOracle,
#                                           with a bench_history.jsonl
#                                           verdict line
#   scripts/check.sh perf [build-dir]       opt-in perf gate: Release-build
#                                           the whole bench fleet
#                                           (simcore_mt, transport,
#                                           algo kernels), re-run each on
#                                           its committed grid, fail on a
#                                           >5% throughput regression vs
#                                           the checked-in BENCH_*.json,
#                                           and append one line (UTC
#                                           timestamp, git sha, per-bench
#                                           status) to bench_history.jsonl.
#                                           A fresh BENCH_simcore_mt whose
#                                           median paired perf/off ratio
#                                           misses 0.95 at some n
#                                           ("perf_within_budget": false)
#                                           fails the gate too; the verdict
#                                           lands in the history line as
#                                           "perf_overhead"
#                                           (default build dir: build)
#   scripts/check.sh algo-perf [build-dir]  fast algo-kernel-only gate:
#                                           bench_algo_kernels --quick (a
#                                           row-subset of the committed
#                                           grid) under the same >5% gate,
#                                           with a history line
#   scripts/check.sh bench-smoke            repository benchmark smoke:
#                                           benchmark/run.sh --smoke builds
#                                           ftc-bench, runs every workload
#                                           of BENCHMARK.json at a tiny
#                                           size, checks each output and
#                                           compares fingerprints with
#                                           benchmark/pinned.json; fails
#                                           unless every workload reports
#                                           "correct": true, "failed": 0
#   scripts/check.sh coverage [build-dir]   record-only line coverage:
#                                           a Debug --coverage -O0 tree
#                                           (default build dir:
#                                           build-coverage) builds the
#                                           examples, benches and tools,
#                                           runs their ctest cases (every
#                                           smoke, reject and selftest plus
#                                           the FUZZ campaigns; no gtest
#                                           binary) and prints, per file of
#                                           src/ outside src/testing, lines
#                                           executed, unexecuted ranges and
#                                           functions never called
#                                           (scripts/coverage_report.py)
#   scripts/check.sh selftest               verify that a failing ctest
#                                           propagates to this script's exit
#                                           code, and that bench_check.py's
#                                           own --selftest passes
#                                           (regression guard, no build)
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${FTC_SANITIZE:-address}"

# Every ASan+UBSan tree (the default gate and the fuzz campaigns share
# build-asan): RelWithDebInfo optimization and debug info, but without its
# default -DNDEBUG, so assert() checks run under the sanitizers. No other
# gate builds with assertions on. -Werror makes this the warning gate too:
# a new -Wall -Wextra warning anywhere in the tree fails the build.
ASAN_CONFIG=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DFTC_SANITIZE=address
             "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g" -DCMAKE_CXX_FLAGS=-Werror)

# Appends one JSON line to bench_history.jsonl recording a perf gate run:
#   {"utc": ..., "git_sha": ..., "mode": ..., "status": ..., "benches": {...}}
# The history file is append-only local state (gitignored): it accumulates a
# per-machine timeline of gate outcomes so a slow drift — each step inside
# the 5% tolerance — is still visible in one place.
# $1 = mode label, $2 = overall status, $3 = per-bench JSON fragment.
append_history() {
  local utc sha
  utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '{"utc": "%s", "git_sha": "%s", "mode": "%s", "status": "%s", "benches": {%s}}\n' \
    "$utc" "$sha" "$1" "$2" "$3" >> bench_history.jsonl
  echo "check.sh: appended $1 run ($2) to bench_history.jsonl"
}

# An explicit configure guard (on top of set -e): a failed configure must
# never fall through to a ctest that "passes" by running zero tests.
configure() {
  if ! cmake "$@"; then
    echo "check.sh: cmake configure failed — tests were NOT run" >&2
    exit 2
  fi
}

# All ctest invocations go through this wrapper so a test failure reaches the
# caller as a nonzero exit even if a later edit drops `set -e`, appends
# commands after the ctest line, or folds the call into a conditional. The
# `selftest` mode below regression-guards exactly this property.
run_ctest() {
  local status=0
  ctest "$@" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "check.sh: ctest failed (exit $status) — propagating" >&2
    exit 1
  fi
}

if [ "${1:-}" = "selftest" ]; then
  # Shim ctest with fakes and assert run_ctest propagates their exit codes.
  SHIM_DIR="$(mktemp -d)"
  trap 'rm -rf "$SHIM_DIR"' EXIT
  printf '#!/bin/sh\nexit 7\n' > "$SHIM_DIR/ctest"
  chmod +x "$SHIM_DIR/ctest"
  status=0
  (PATH="$SHIM_DIR:$PATH" run_ctest --version) >/dev/null 2>&1 || status=$?
  if [ "$status" -eq 0 ]; then
    echo "check.sh selftest: FAILED — a failing ctest did not propagate" >&2
    exit 1
  fi
  printf '#!/bin/sh\nexit 0\n' > "$SHIM_DIR/ctest"
  status=0
  (PATH="$SHIM_DIR:$PATH" run_ctest --version) >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "check.sh selftest: FAILED — a passing ctest reported failure" >&2
    exit 1
  fi
  echo "check.sh selftest: OK — ctest failures propagate"
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/bench_check.py --selftest
  else
    echo "check.sh selftest: python3 not found — skipping bench_check selftest"
  fi
  exit 0
fi

if [ "${1:-}" = "bench-smoke" ]; then
  # run.sh exits nonzero on a build failure or a pinned-fingerprint
  # mismatch; a wrong output only shows in its per-workload verdict line
  # ("<workload>: "correct": ..., "failed": N"), so every workload named in
  # BENCHMARK.json must print a clean one.
  status=0
  out="$(bash benchmark/run.sh --smoke)" || status=$?
  printf '%s\n' "$out"
  if [ "$status" -ne 0 ]; then
    echo "check.sh: benchmark/run.sh --smoke failed (exit $status)" >&2
    exit 1
  fi
  bad=0
  for w in $(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])'); do
    if ! grep -q "^$w: \"correct\": true, .*\"failed\": 0\$" <<< "$out"; then
      echo "check.sh: bench-smoke workload $w did not report a clean run" >&2
      bad=1
    fi
  done
  [ "$bad" -ne 0 ] && exit 1
  echo "check.sh: bench-smoke OK — every workload correct, fingerprints pinned"
  exit 0
fi

if [ "${1:-}" = "coverage" ]; then
  # The program directories are built and tested one by one, so the gtest
  # binaries are never compiled; stale .gcda counts from an earlier run are
  # dropped first. No bound: the report is a record.
  BUILD_DIR="${2:-build-coverage}"
  configure -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug \
    "-DCMAKE_CXX_FLAGS=--coverage -O0"
  for dir in bench examples tools; do
    cmake --build "$BUILD_DIR/$dir" -j "$(nproc)"
  done
  find "$BUILD_DIR" -name '*.gcda' -delete
  for dir in bench examples tools; do
    run_ctest --test-dir "$BUILD_DIR/$dir" --output-on-failure -j "$(nproc)"
  done
  python3 scripts/coverage_report.py "$BUILD_DIR"
  exit 0
fi

case "${1:-}" in fuzz-smoke | loss-fuzz | dynamic-fuzz)
  # Short adversarial campaign under ASan+UBSan: 2000 fixed-seed cases
  # through the full invariant library (see DESIGN.md §8). Deterministic, so
  # a failure is a regression with a one-line repro, never a flake. The mode
  # picks the case family (see the usage above): loss-fuzz adds --lossy,
  # dynamic-fuzz adds --dynamic and appends its verdict to
  # bench_history.jsonl.
  flags=()
  case "$1" in
    loss-fuzz) flags=(--lossy) ;;
    dynamic-fuzz) flags=(--dynamic) ;;
  esac
  BUILD_DIR="${2:-build-asan}"
  configure -B "$BUILD_DIR" -S . "${ASAN_CONFIG[@]}"
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target ftc-fuzz
  status=0
  "$BUILD_DIR/tools/ftc-fuzz" run --cases=2000 --seed=1 --progress=500 \
    "${flags[@]}" || status=$?
  if [ "$1" = "dynamic-fuzz" ]; then
    overall=ok
    [ "$status" -ne 0 ] && overall=fail
    append_history dynamic-fuzz "$overall" "\"dynamic_fuzz\": \"$overall\""
  fi
  if [ "$status" -ne 0 ]; then
    echo "check.sh: $1 campaign failed — see repro line above" >&2
    exit 1
  fi
  exit 0
  ;;
esac

if [ "${1:-}" = "perf" ]; then
  # Fleet perf-regression gate (opt-in: it re-runs real benchmarks, minutes
  # not seconds, and is only meaningful on a quiet machine). Every bench
  # with a committed baseline runs on its full committed grid; fresh JSON
  # goes under the build tree, the committed BENCH_*.json stay untouched.
  # All benches run even after a failure so one regression doesn't hide
  # another; the history line records each bench's verdict.
  BUILD_DIR="${2:-build}"
  configure -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target bench_simcore_mt bench_transport bench_algo_kernels
  # name : binary : committed baseline (binaries take the default grid).
  FLEET="simcore_mt:bench_simcore_mt:BENCH_simcore_mt.json
transport:bench_transport:BENCH_transport.json
algo:bench_algo_kernels:BENCH_algo.json"
  status=0
  bench_states=""
  while IFS=: read -r name binary baseline; do
    fresh="$BUILD_DIR/${baseline%.json}.fresh.json"
    one=0
    "$BUILD_DIR/bench/$binary" --json="$fresh" || one=$?
    if [ "$one" -eq 0 ]; then
      python3 scripts/bench_check.py "$baseline" "$fresh" || one=$?
    fi
    verdict=ok
    if [ "$one" -ne 0 ]; then verdict=fail; status=1; fi
    bench_states="${bench_states:+$bench_states, }\"$name\": \"$verdict\""
  done <<< "$FLEET"
  # Record the perf-attribution overhead verdict on its own key: a fleet
  # regression and an attribution-cost blowout are different problems.
  overhead=fail
  if grep -q '"perf_within_budget": true' \
      "$BUILD_DIR/BENCH_simcore_mt.fresh.json" 2>/dev/null; then
    overhead=ok
  fi
  [ "$overhead" = "fail" ] && status=1
  bench_states="$bench_states, \"perf_overhead\": \"$overhead\""
  overall=ok
  [ "$status" -ne 0 ] && overall=fail
  append_history perf "$overall" "$bench_states"
  if [ "$status" -ne 0 ]; then
    echo "check.sh: perf gate failed — throughput regressed >5% (or a bench aborted)" >&2
    exit 1
  fi
  exit 0
fi

if [ "${1:-}" = "algo-perf" ]; then
  # Algo-kernel-only gate: seconds, not minutes. --quick runs a row-subset
  # of the committed BENCH_algo.json grid, so bench_check compares exactly
  # the overlapping rows under the same >5% tolerance.
  BUILD_DIR="${2:-build}"
  configure -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_algo_kernels
  status=0
  "$BUILD_DIR/bench/bench_algo_kernels" --quick \
    --json="$BUILD_DIR/BENCH_algo.fresh.json" || status=$?
  if [ "$status" -eq 0 ]; then
    python3 scripts/bench_check.py BENCH_algo.json \
      "$BUILD_DIR/BENCH_algo.fresh.json" || status=$?
  fi
  overall=ok
  [ "$status" -ne 0 ] && overall=fail
  append_history algo-perf "$overall" "\"algo\": \"$overall\""
  if [ "$status" -ne 0 ]; then
    echo "check.sh: algo-perf gate failed — kernel throughput regressed >5%" >&2
    exit 1
  fi
  exit 0
fi

if [ "$MODE" = "thread" ]; then
  BUILD_DIR="${1:-build-tsan}"
  configure -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DFTC_SANITIZE=thread
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target ftc_tests
  # The concurrency surface: the thread pool itself, the determinism suites
  # (which drive SyncNetwork — with and without an observability plane — at
  # many widths; TraceDeterminism.PooledRecorderStagingIsWidthInvariant
  # forces the pool so workers stage into obs::Recorder), the obs wiring
  # suites (a plane, and a perf plane, attached with the pool forced on),
  # the broadcast fan-out equivalence suite (broadcasts pulled and sends
  # pushed by the parallel placement pass), the reliable-transport suite
  # (per-process ARQ state under the parallel engine), and the flood
  # reference suite (the bench flood workload on a pool forced on by
  # set_parallel_grain(0), against a naive engine), and the LP mirror's
  # width suite (per-block white/gray/raiser lists written by pool
  # workers, raisers pushing into their own α/β rows while reading the
  # λ frozen at the coloring barrier — LpParallel.SenderSlotsMatchReference
  # at widths 1 and 3 — and decrements and λ resets applied after the
  # push's barrier), the dynamic interplay suite
  # (the pool forced on over RepairProcess and HeartbeatMonitor, with the
  # incremental maintainer publishing to the same plane between rounds),
  # and the synchronizer width suite (Synchronized adapters buffering
  # envelopes on pool workers for the three protocol drivers).
  run_ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -R 'ThreadPool|ParallelDeterminism|TraceDeterminism|ObsWiring|PerfWiring|BroadcastFanOut|ReliableTransport|FloodReference|LpParallel|DynamicInterplay|SynchronizerParallel'
else
  BUILD_DIR="${1:-build-asan}"
  configure -B "$BUILD_DIR" -S . "${ASAN_CONFIG[@]}"
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  run_ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
