#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric.

    compare.py [--bounds BENCHMARK.json] A B

A and B are JSONL files of run records (benchmark/run.sh appends one per
run). For every workload and every end-to-end metric in BENCHMARK.json,
B's median is checked against A's: B may be worse by at most the metric's
bound, as a share of A's median. On every seed both files ran, the counts
that a deterministic simulation fixes (rounds, msg_words) and the input
fingerprint must be identical. Every run must have passed its correctness
checks.

A metric whose quartile spread on either side is wider than its bound is
reported "unresolved" rather than passed, unless every run of B reads
better than every run of A. Timings of a run whose workload had more
threads than the host are reported "ungated".

Prints one row per workload and exits 1 if any gated pair fails.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

EXACT = ("rounds", "msg_words")


def load(path):
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[rec["manifest"]["workload"]].append(rec)
    return runs


def spread(values):
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def judge(metric, a_runs, b_runs):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [r["metrics"][name]["value"] for r in a_runs]
    b = [r["metrics"][name]["value"] for r in b_runs]
    change = worse_by(statistics.median(a), statistics.median(b), better)
    cell = f"{change:+.1%}"
    timing = metric["unit"] in ("s", "ms", "us", "ns", "1/s")
    if timing and any(r["manifest"]["oversubscribed"] for r in a_runs + b_runs):
        return cell + " ungated", True
    if spread(a) > bound or spread(b) > bound:
        b_all_better = all(worse_by(x, y, better) < 0 for x in a for y in b)
        return (cell + " better", True) if b_all_better else (cell + " unresolved", True)
    if change > bound:
        return cell + " WORSE", False
    return cell + " ok", True


def exact(name, a_runs, b_runs):
    """A count must repeat exactly on every seed both sides ran; other
    seeds have other inputs, so their counts are not comparable."""
    a = {r["manifest"]["seed"]: r["metrics"][name]["value"] for r in a_runs}
    b = {r["manifest"]["seed"]: r["metrics"][name]["value"] for r in b_runs}
    shared = a.keys() & b.keys()
    if not shared:
        return "no shared seed", True
    return ("equal", True) if all(a[s] == b[s] for s in shared) else ("DIFFERS", False)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bounds", default="BENCHMARK.json")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()

    with open(args.bounds) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load(args.a), load(args.b)

    header = ["workload", "runs"] + [m["name"] for m in metrics] + list(EXACT)
    header += ["inputs", "checks"]
    rows = [header]
    ok = True
    for workload in list(a_runs) + [w for w in b_runs if w not in a_runs]:
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            rows.append([workload, f"{len(a)}/{len(b)}", "missing on one side"])
            ok = False
            continue
        row = [workload, f"{len(a)}/{len(b)}"]
        for m in metrics:
            cell, good = judge(m, a, b)
            row.append(cell)
            ok &= good
        for name in EXACT:
            cell, good = exact(name, a, b)
            row.append(cell)
            ok &= good
        prints_a = {r["manifest"]["seed"]: r["fingerprint"] for r in a}
        prints_b = {r["manifest"]["seed"]: r["fingerprint"] for r in b}
        same = all(prints_a[s] == prints_b[s] for s in prints_a.keys() & prints_b.keys())
        row.append("same" if same else "DIFFER")
        failed = sum(r["failed"] for r in a + b)
        correct = all(r["correct"] for r in a + b)
        row.append("pass" if correct and failed == 0 else f"FAILED {failed}")
        ok &= same and correct and failed == 0
        rows.append(row)

    widths = [max(len(r[i]) if i < len(r) else 0 for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
