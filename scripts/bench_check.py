#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh bench JSON against the committed one.

Usage:
    bench_check.py COMMITTED.json FRESH.json [--tolerance=0.05]
    bench_check.py --selftest

Both files must be outputs of the same bench binary (BENCH_*.json shape:
a top-level object with a "results" array of flat row objects). Rows are
matched by their identity keys — every key that is not a measurement
(throughputs, timings, derived ratios). For each matched row, every
`*_per_sec` metric present in both is compared; a fresh value more than
`tolerance` below the committed one is a regression and the script exits
nonzero. Rows present on only one side produce warnings, not failures, so
grid changes don't mask real regressions on the surviving rows.

Machine context: if both files record `hardware_threads` and they differ,
the comparison is apples-to-oranges and the script refuses it (nonzero exit,
one-line diagnosis): re-record the baseline on the machine that runs the
gate. A row whose `threads` exceeds `hardware_threads` measures time-slicing,
not scaling: it is printed with an `oversubscribed` label and left out of
the gate.

`--selftest` exercises the gate against synthetic fixtures (pass, fail,
missing file, malformed JSON, no-metric baseline, ungated build_s, hardware
mismatch, oversubscribed rows) and exits nonzero on
any deviation — `check.sh selftest` runs it so the gate itself is
regression-guarded.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

# Keys that are measurements or derived from them — never identity.
MEASUREMENT_KEYS = frozenset({
    "seconds", "rounds", "messages", "words",
    "peak_rss_mb", "allocs_per_round", "allocs_per_trial", "wall_s",
    "speedup_vs_1t", "speedup_vs_scalar", "speedup_vs_reference",
    "efficiency", "vs_off",
    # Topology ingest time (bench_simcore_mt): reported, never gated.
    "build_s",
    # Perf-attribution block and its components (bench_common.h
    # perf_attribution_json): where the time went, never which row it is.
    "phase_attribution", "coverage", "imbalance_mean", "imbalance_max",
    "perf_within_budget",
})


def identity(row):
    # Composite values (e.g. the phase_attribution object) are measurements
    # by construction and unhashable besides, so they never join the key.
    return tuple(sorted((k, v) for k, v in row.items()
                        if not k.endswith("_per_sec")
                        and k not in MEASUREMENT_KEYS
                        and not isinstance(v, (dict, list))))


def load_rows(path, role):
    """Loads one side of the comparison; exits with a one-line diagnosis
    (never a traceback) on a missing/renamed file or a malformed document."""
    if not os.path.exists(path):
        hint = (" — was the baseline renamed or not committed?"
                if role == "baseline"
                else " — did the bench run fail before writing its JSON?")
        sys.exit(f"bench_check: {role} file not found: {path}{hint}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"bench_check: cannot read {role} {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"bench_check: {role} {path} is not valid JSON ({e}) — "
                 f"truncated bench output?")
    if not isinstance(doc, dict):
        sys.exit(f"bench_check: {role} {path} is not a JSON object "
                 f"(got {type(doc).__name__}) — not a BENCH_*.json file?")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"bench_check: {role} {path} has no 'results' rows — "
                 f"not a BENCH_*.json file, or an empty bench run")
    if not any(k.endswith("_per_sec") for row in rows for k in row):
        sys.exit(f"bench_check: {role} {path} has no '*_per_sec' metric "
                 f"columns — nothing to gate on (did the bench's JSON "
                 f"schema change?)")
    return doc, {identity(r): r for r in rows}


def fmt_id(key):
    return " ".join(f"{k}={v}" for k, v in key)


def compare(committed_path, fresh_path, tolerance):
    committed_doc, committed = load_rows(committed_path, "baseline")
    fresh_doc, fresh = load_rows(fresh_path, "fresh")

    hw_old = committed_doc.get("hardware_threads")
    hw_new = fresh_doc.get("hardware_threads")
    if hw_old is not None and hw_new is not None and hw_old != hw_new:
        sys.exit(f"bench_check: hardware_threads differ (committed {hw_old}, "
                 f"fresh {hw_new}) — refusing to compare across machines; "
                 f"re-record {committed_path} on this host")
    hw = hw_new if hw_new is not None else hw_old

    regressions = []
    compared = 0
    for key, new_row in sorted(fresh.items()):
        old_row = committed.get(key)
        if old_row is None:
            print(f"bench_check: WARNING fresh row not in committed baseline: "
                  f"{fmt_id(key)}")
            continue
        threads = new_row.get("threads")
        if hw is not None and isinstance(threads, int) and threads > hw:
            print(f"  {fmt_id(key)}: oversubscribed ({threads} threads > "
                  f"{hw} hardware threads) — not gated")
            continue
        for metric in sorted(new_row):
            if not metric.endswith("_per_sec") or metric not in old_row:
                continue
            old, new = float(old_row[metric]), float(new_row[metric])
            if old <= 0:
                continue
            compared += 1
            ratio = new / old
            marker = ""
            if ratio < 1.0 - tolerance:
                regressions.append((key, metric, old, new, ratio))
                marker = "  <-- REGRESSION"
            print(f"  {fmt_id(key)} {metric}: "
                  f"{old:.0f} -> {new:.0f} ({ratio:.1%} of baseline)"
                  f"{marker}")
    for key in sorted(committed):
        if key not in fresh:
            print(f"bench_check: WARNING committed row missing from fresh run: "
                  f"{fmt_id(key)}")

    if compared == 0:
        sys.exit("bench_check: no comparable *_per_sec metrics found — the "
                 "two files share no row identities (different bench, or "
                 "the grid changed completely); regenerate the baseline")
    if regressions:
        print(f"\nbench_check: FAIL — {len(regressions)} metric(s) regressed "
              f"more than {tolerance:.0%}:")
        for key, metric, old, new, ratio in regressions:
            print(f"  {fmt_id(key)} {metric}: {old:.0f} -> {new:.0f} "
                  f"({(1.0 - ratio):.1%} slower)")
        return 1
    print(f"\nbench_check: OK — {compared} metrics within {tolerance:.0%} "
          f"of {committed_path}")
    return 0


def selftest():
    """Synthetic fixtures through the real entry points; any deviation from
    the expected exit behavior fails the selftest."""
    def run(committed, fresh, tolerance=0.05):
        """Runs compare() in-process with its chatter suppressed, capturing
        SystemExit; returns the effective exit code."""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return compare(committed, fresh, tolerance)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1

    failures = []

    def expect(name, got, want_fail):
        failed = (got != 0)
        if failed != want_fail:
            failures.append(f"{name}: exit={got}, expected "
                            f"{'failure' if want_fail else 'success'}")

    with tempfile.TemporaryDirectory() as d:
        def write(name, doc):
            path = os.path.join(d, name)
            with open(path, "w") as f:
                if isinstance(doc, str):
                    f.write(doc)
                else:
                    json.dump(doc, f)
            return path

        base = write("base.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 100.0,
             "speedup_vs_scalar": 4.0},
            {"section": "x", "n": 20, "ops_per_sec": 50.0,
             "speedup_vs_scalar": 3.0},
        ]})
        same = write("same.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 99.0,
             "speedup_vs_scalar": 9.9},  # derived ratio must not affect match
            {"section": "x", "n": 20, "ops_per_sec": 51.0,
             "speedup_vs_scalar": 0.1},
        ]})
        slow = write("slow.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 80.0},
            {"section": "x", "n": 20, "ops_per_sec": 50.0},
        ]})
        subset = write("subset.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 101.0},
        ]})
        disjoint = write("disjoint.json", {"results": [
            {"section": "y", "n": 99, "ops_per_sec": 1.0},
        ]})
        no_metric = write("no_metric.json", {"results": [
            {"section": "x", "n": 10, "seconds": 1.0},
        ]})
        malformed = write("malformed.json", '{"results": [')
        not_bench = write("not_bench.json", {"hello": "world"})
        # phase_attribution blocks differ wildly between the sides (and one
        # row gains the block only on the fresh side): rows must still match
        # on their true identity, and the block itself is never compared.
        attrib_base = write("attrib_base.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 100.0,
             "phase_attribution": {"rounds": 20, "coverage": 0.99,
                                   "phases_ns_per_round": {"compute": 10.0}}},
            {"section": "x", "n": 20, "ops_per_sec": 50.0},
        ]})
        attrib_same = write("attrib_same.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 99.0,
             "phase_attribution": {"rounds": 5, "coverage": 0.42,
                                   "phases_ns_per_round": {"deliver": 7.0}}},
            {"section": "x", "n": 20, "ops_per_sec": 51.0,
             "phase_attribution": {"rounds": 20, "coverage": 1.0,
                                   "phases_ns_per_round": {}}},
        ]})
        attrib_slow = write("attrib_slow.json", {"results": [
            {"section": "x", "n": 10, "ops_per_sec": 80.0,
             "phase_attribution": {"rounds": 20, "coverage": 0.99,
                                   "phases_ns_per_round": {"compute": 10.0}}},
            {"section": "x", "n": 20, "ops_per_sec": 50.0},
        ]})

        # build_s differs tenfold and is missing from one fresh row: rows
        # still match on n, and the slower ingest is not a regression.
        build_base = write("build_base.json", {"results": [
            {"n": 10, "build_s": 0.01, "ops_per_sec": 100.0},
            {"n": 20, "build_s": 0.02, "ops_per_sec": 50.0},
        ]})
        build_slow = write("build_slow.json", {"results": [
            {"n": 10, "build_s": 0.1, "ops_per_sec": 100.0},
            {"n": 20, "ops_per_sec": 50.0},
        ]})

        # hardware_threads: equal values compare; differing ones refuse;
        # rows above the host's thread count never gate.
        hw_base = write("hw_base.json", {"hardware_threads": 4, "results": [
            {"n": 10, "threads": 1, "ops_per_sec": 100.0},
            {"n": 10, "threads": 4, "ops_per_sec": 300.0},
            {"n": 10, "threads": 8, "ops_per_sec": 320.0},
        ]})
        hw_other = write("hw_other.json", {"hardware_threads": 1, "results": [
            {"n": 10, "threads": 1, "ops_per_sec": 100.0},
            {"n": 10, "threads": 4, "ops_per_sec": 300.0},
            {"n": 10, "threads": 8, "ops_per_sec": 320.0},
        ]})
        hw_oversub_slow = write("hw_oversub_slow.json", {
            "hardware_threads": 4, "results": [
                {"n": 10, "threads": 1, "ops_per_sec": 100.0},
                {"n": 10, "threads": 4, "ops_per_sec": 300.0},
                {"n": 10, "threads": 8, "ops_per_sec": 100.0},
            ]})
        hw_gated_slow = write("hw_gated_slow.json", {
            "hardware_threads": 4, "results": [
                {"n": 10, "threads": 1, "ops_per_sec": 100.0},
                {"n": 10, "threads": 4, "ops_per_sec": 200.0},
                {"n": 10, "threads": 8, "ops_per_sec": 320.0},
            ]})
        hw_only_oversub = write("hw_only_oversub.json", {
            "hardware_threads": 4, "results": [
                {"n": 10, "threads": 8, "ops_per_sec": 320.0},
            ]})

        expect("within tolerance", run(base, same), want_fail=False)
        expect("regression detected", run(base, slow), want_fail=True)
        expect("regression inside loose tolerance",
               run(base, slow, tolerance=0.5), want_fail=False)
        expect("quick row-subset", run(base, subset), want_fail=False)
        expect("disjoint grids rejected", run(base, disjoint), want_fail=True)
        expect("missing baseline", run(os.path.join(d, "renamed.json"), same),
               want_fail=True)
        expect("missing fresh", run(base, os.path.join(d, "gone.json")),
               want_fail=True)
        expect("no *_per_sec baseline", run(no_metric, same), want_fail=True)
        expect("malformed JSON", run(malformed, same), want_fail=True)
        expect("non-bench JSON", run(not_bench, same), want_fail=True)
        expect("phase_attribution excluded from identity",
               run(attrib_base, attrib_same), want_fail=False)
        expect("regression caught despite matching attribution",
               run(attrib_base, attrib_slow), want_fail=True)
        expect("build_s neither identity nor gated",
               run(build_base, build_slow), want_fail=False)
        expect("same hardware_threads compared", run(hw_base, hw_base),
               want_fail=False)
        expect("differing hardware_threads refused", run(hw_base, hw_other),
               want_fail=True)
        expect("oversubscribed regression not gated",
               run(hw_base, hw_oversub_slow), want_fail=False)
        expect("regression below hardware_threads still gated",
               run(hw_base, hw_gated_slow), want_fail=True)
        expect("only oversubscribed rows leave nothing to gate",
               run(hw_base, hw_only_oversub), want_fail=True)
        # The oversubscribed label must reach the printed report.
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            compare(hw_base, hw_oversub_slow, 0.05)
        if "threads=8: oversubscribed" not in report.getvalue():
            failures.append("oversubscribed row not labelled in the report")

    if failures:
        print("bench_check --selftest: FAILED")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench_check --selftest: OK — 20 fixtures behaved as expected")
    return 0


def main(argv):
    if "--selftest" in argv[1:]:
        return selftest()
    tolerance = 0.05
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            try:
                tolerance = float(arg.split("=", 1)[1])
            except ValueError:
                sys.exit(f"bench_check: bad {arg} — expected a number, "
                         f"e.g. --tolerance=0.05")
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    return compare(paths[0], paths[1], tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
