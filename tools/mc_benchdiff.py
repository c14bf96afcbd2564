#!/usr/bin/env python3
"""Gate a newer BENCH record against an older one.

Usage:
    tools/mc_benchdiff.py OLDER.json NEWER.json

Both files are records written by tools/mc_benchrec.py. For each
workload and seed in both, each end-to-end metric of BENCHMARK.json
is compared median to median: the newer median may be worse than the
older one by at most the metric's `bound`, as a share of the older
median. The `cell ... digest=` and `counters ...` lines must be equal
too, unless NEWER declares a deliberate model change with a
non-empty top-level "model_change" string.

Exit codes:
    0  the gate holds
    1  a metric is worse than its bound, or an undeclared digest or
       counters change
    2  an unreadable record, a wrong schema, a different run_seconds,
       or no shared workload and seed

Host times are only comparable between records measured on the same
host.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 3


class BadRecord(Exception):
    pass


def load_record(path, metrics):
    """The record and {(workload, seed): (medians, pinned lines)}."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if doc["schema"] != SCHEMA:
            raise BadRecord(f"{path}: schema {doc['schema']!r}, "
                            f"expected {SCHEMA}")
        entries = {}
        for entry in doc["workloads"]:
            medians = {name: float(entry["metrics"][name]["median"])
                       for name in metrics}
            entries[(entry["workload"], entry["seed"])] = (
                medians, list(entry["lines"]))
        return doc, entries
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BadRecord(f"{path}: unreadable record ({e!r})")


def main(argv):
    ap = argparse.ArgumentParser(
        prog="mc_benchdiff.py",
        description="Gate a newer BENCH record against an older one.")
    ap.add_argument("older", help="older BENCH record")
    ap.add_argument("newer", help="newer BENCH record")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    try:
        old_doc, old = load_record(args.older, metrics)
        new_doc, new = load_record(args.newer, metrics)
    except BadRecord as e:
        print(f"mc_benchdiff: {e}", file=sys.stderr)
        return 2
    if old_doc.get("run_seconds") != new_doc.get("run_seconds"):
        print(f"mc_benchdiff: run_seconds {old_doc.get('run_seconds')} "
              f"vs {new_doc.get('run_seconds')}", file=sys.stderr)
        return 2
    shared = [key for key in old if key in new]
    if not shared:
        print("mc_benchdiff: no shared workload and seed",
              file=sys.stderr)
        return 2
    model_change = new_doc.get("model_change")
    declared = isinstance(model_change, str) and model_change != ""

    failures = []
    print(f"{'workload':<17} {'seed':>4} {'metric':<12} {'older':>12} "
          f"{'newer':>12} {'change':>8} {'bound':>6}")
    for key in shared:
        (old_medians, old_lines), (new_medians, new_lines) = old[key], new[key]
        for name, m in metrics.items():
            o, n = old_medians[name], new_medians[name]
            worse = o - n if m["better"] == "higher" else n - o
            change = f"{100.0 * (n - o) / o:+.1f}%" if o else "-"
            flag = ""
            if worse > m["bound"] * abs(o):
                failures.append(f"{key[0]} seed {key[1]}: {name}")
                flag = "  WORSE"
            print(f"{key[0]:<17} {key[1]:>4} {name:<12} {o:>12.6g} "
                  f"{n:>12.6g} {change:>8} {m['bound']:>6g}{flag}")
        if old_lines != new_lines:
            if declared:
                print(f"{key[0]} seed {key[1]}: digest or counters "
                      f"lines changed (model change: {model_change})")
            else:
                failures.append(f"{key[0]} seed {key[1]}: digest or "
                                "counters lines changed")

    if failures:
        for failure in failures:
            print(f"mc_benchdiff: {failure}", file=sys.stderr)
        return 1
    print(f"mc_benchdiff: OK ({len(shared)} workload-seed pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
