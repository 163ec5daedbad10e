#!/usr/bin/env python3
"""Line coverage of the library from a `--coverage` build tree.

    scripts/coverage_report.py BUILD_DIR

Runs `gcov --json-format --stdout` on every object of src/ outside
src/testing and prints, per source file under src/ (headers included), the
lines executed out of the executable lines, the unexecuted line ranges and
the functions never called, then the totals. An object no program linked
has no .gcda, so all its lines count as unexecuted. Counts of one source
file seen from several objects (a header) are merged: a line ran if any
object ran it. `scripts/check.sh coverage` builds the tree and runs the
program ctest cases before calling this.
"""
import json
import pathlib
import subprocess
import sys


def ranges(numbers):
    spans = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: coverage_report.py BUILD_DIR")
    build = pathlib.Path(sys.argv[1]).resolve()
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    lines = {}  # source path -> {line number: count}
    funcs = {}  # source path -> {(start line, name): count}
    for gcno in sorted((build / "src").rglob("*.gcno")):
        if gcno.relative_to(build / "src").parts[0] == "testing":
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", str(gcno)],
            cwd=gcno.parent, capture_output=True, text=True, check=True)
        for doc in out.stdout.splitlines():
            for f in json.loads(doc)["files"]:
                path = (gcno.parent / f["file"]).resolve()
                if not path.is_relative_to(src) or path.is_relative_to(
                        src / "testing") or not f["lines"]:
                    continue
                rel = path.relative_to(src.parent)
                per_line = lines.setdefault(rel, {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    per_line[n] = per_line.get(n, 0) + ln["count"]
                per_func = funcs.setdefault(rel, {})
                for fn in f["functions"]:
                    key = (fn["start_line"], fn["demangled_name"])
                    per_func[key] = per_func.get(key, 0) + fn["execution_count"]

    total = executed = 0
    rows = []
    for rel, per_line in lines.items():
        missed = [n for n, c in per_line.items() if c == 0]
        total += len(per_line)
        executed += len(per_line) - len(missed)
        rows.append((-len(missed), str(rel), len(per_line), missed, rel))
    for _, name, n_lines, missed, rel in sorted(rows):
        print(f"{name}: {n_lines - len(missed)} of {n_lines} lines executed")
        if missed:
            print(f"  unexecuted: {ranges(missed)}")
        for start, fn in sorted(k for k, c in funcs[rel].items() if c == 0):
            print(f"  never called: {fn} (line {start})")
    share = 100.0 * executed / total if total else 0.0
    print(f"coverage: {executed} of {total} lines executed in src/ outside "
          f"src/testing ({share:.1f}%), {total - executed} unexecuted")


if __name__ == "__main__":
    main()
