#!/usr/bin/env bash
# Builds and runs the repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One run of one workload. The last line of stdout is the JSON result.
#   benchmark/run.sh [--seeds 1,2,3] [--seconds T] [--out FILE]
#       Every workload once per seed, traced. Prints every metric with its
#       unit and appends one record per run to FILE (default
#       .bench_build/results.jsonl), the input of --compare.
#   benchmark/run.sh --smoke
#       Every workload at a tiny size, traced; a few seconds in all.
#   benchmark/run.sh --compare A B
#       Checks result file B against A with the bounds in BENCHMARK.json.
#
# Run from anywhere; the build lives in .bench_build at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
workloads=(alg12_gnp alg3_udg alg12_mirror_gnp churn_udg burst_udg)

if [[ "${1:-}" == "--compare" ]]; then
  shift
  exec python3 "$here/compare.py" --bounds "$root/BENCHMARK.json" "$@"
fi

mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target ftc-bench -j 2; } >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

git_id=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  git_id="$(git -C "$root" rev-parse --short=12 HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    git_id="$git_id+dirty"
  fi
fi
bench=("$build/ftc-bench" --git "$git_id" --pinned "$here/pinned.json"
       --out-dir "$build/out")

case "${1:-}" in
  --workload*)
    exec "${bench[@]}" "$@"
    ;;
  --smoke)
    for w in "${workloads[@]}"; do
      result="$("${bench[@]}" --workload "$w" --seed 1 --seconds 0.3 --trace 1 --smoke)"
      echo "$w: $(tail -n 1 <<<"$result" | grep -o '"correct".*"failed": [0-9]*')"
    done
    exit 0
    ;;
esac

seeds=1
seconds=20
out="$build/results.jsonl"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
for seed in ${seeds//,/ }; do
  for w in "${workloads[@]}"; do
    "${bench[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --record "$out" | sed '$d'
  done
done
echo "records appended to $out"
