#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload mix-morph --seed 42 \
        --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if
set, else .bench_build/, and is incremental. Every argument is passed
to the simbench binary (see simbench/main.cc); the span file of the
run is written under the build directory unless --trace-out is given.
Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero, printing no result, if the
build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "simbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "simbench")


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"simbench: build failed: {e}", file=sys.stderr)
        return 2

    if "--trace-out" not in args:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "{}-s{}-t{}.json".format(
            arg_value(args, "--workload", "none"),
            arg_value(args, "--seed", "42"),
            arg_value(args, "--trace", "0"))
        args += ["--trace-out", os.path.join(traces, name)]

    sys.stdout.flush()
    try:
        proc = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("simbench: run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
