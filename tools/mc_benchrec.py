#!/usr/bin/env python3
"""Write a BENCH_<n>.json record from captured simbench runs.

Usage:
    tools/mc_benchrec.py OUT.json RUN.txt...

Each RUN.txt is the stdout of one untraced simbench run at the
benchmark's run length, e.g.

    python3 simbench/run.py --workload mix-morph --seed 42 \\
        --seconds 20 --trace 0 > runs/mix-morph-42-1.txt

The record holds, for every workload in BENCHMARK.json and each of
seeds 42 and 7 (the held-out seed), the number of runs, the median
and first and third quartiles of each end-to-end metric, and every
`cell ... digest=` and `counters ...` line the runs printed.

The writer refuses, writing nothing, unless every run is complete
and deterministic: untraced, of BENCHMARK.json's run_seconds, with
`failed` 0, of a known workload and seed, and printing the same
digest and counters lines as every other run of its workload and
seed. It also refuses a record with fewer than 5 runs for any
workload and seed.

Exit codes: 0 record written, 1 runs refused, 2 usage error.
"""

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = 3
SEEDS = (42, 7)
MIN_RUNS = 5

HEADER = re.compile(
    r"^simbench workload=(\S+) seed=(\d+) seconds=(\S+) trace=(\d)")


class Refused(Exception):
    pass


def parse_run(path, benchmark):
    """(workload, seed, metric values, digest/counters lines) of a run."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise Refused(f"{path}: {e}")
    header = next((m for m in map(HEADER.match, lines) if m), None)
    if header is None:
        raise Refused(f"{path}: no simbench header line")
    workload, seed = header.group(1), int(header.group(2))
    if header.group(3) != f"{benchmark['run_seconds']:g}":
        raise Refused(f"{path}: seconds={header.group(3)}, the "
                      f"benchmark runs {benchmark['run_seconds']}")
    if header.group(4) != "0":
        raise Refused(f"{path}: traced run")
    if workload not in [w["name"] for w in benchmark["workloads"]]:
        raise Refused(f"{path}: unknown workload {workload}")
    if seed not in SEEDS:
        raise Refused(f"{path}: seed {seed} is not one of {SEEDS}")
    try:
        result = json.loads(lines[-1])
        failed = result["failed"]
        values = {m["name"]: float(result["metrics"][m["name"]]["value"])
                  for m in benchmark["end_to_end"]}
    except (IndexError, ValueError, KeyError, TypeError):
        raise Refused(f"{path}: no complete result line")
    if failed != 0:
        raise Refused(f"{path}: failed={failed}")
    pinned = [ln for ln in lines if ln.startswith(("cell ", "counters "))]
    return workload, seed, values, pinned


def summarize(runs, benchmark):
    """Run count, metric medians and quartiles, and the pinned lines."""
    metrics = {}
    for m in benchmark["end_to_end"]:
        values = [run[0][m["name"]] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
        metrics[m["name"]] = {"unit": m["unit"], "median": median,
                              "q1": q1, "q3": q3}
    return {"runs": len(runs), "metrics": metrics, "lines": runs[0][1]}


def record(paths, benchmark):
    groups = {}
    for path in paths:
        workload, seed, values, pinned = parse_run(path, benchmark)
        group = groups.setdefault((workload, seed), [])
        if group and group[0][1] != pinned:
            raise Refused(f"{path}: digest or counters lines differ "
                          f"from another {workload} seed {seed} run")
        group.append((values, pinned))
    entries = []
    for w in benchmark["workloads"]:
        for seed in SEEDS:
            runs = groups.get((w["name"], seed), [])
            if len(runs) < MIN_RUNS:
                raise Refused(f"{w['name']} seed {seed}: {len(runs)} "
                              f"runs, need {MIN_RUNS}")
            entries.append({"workload": w["name"], "seed": seed,
                            **summarize(runs, benchmark)})
    return {"schema": SCHEMA, "run_seconds": benchmark["run_seconds"],
            "workloads": entries}


def main(argv):
    ap = argparse.ArgumentParser(
        prog="mc_benchrec.py",
        description="Write a BENCH record from simbench run outputs.")
    ap.add_argument("out", help="record to write")
    ap.add_argument("runs", nargs="+", help="captured simbench stdout")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    try:
        doc = record(args.runs, benchmark)
    except Refused as e:
        print(f"mc_benchrec: refused: {e}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"mc_benchrec: wrote {args.out} "
          f"({len(doc['workloads'])} workload-seed entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
