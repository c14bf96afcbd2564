#!/bin/sh
# Bench-smoke CI leg: prove the perf-observability harness itself
# works, not that CI hardware is fast. Five gates:
#
#   1. mc_bench --suite smoke emits a valid schema-2 BENCH document,
#      and every cell's refProcessing phase reports ZERO allocation
#      calls — the steady-state gate: the reference-processing inner
#      loop is contractually allocation-free for every scheme.
#   2. mc_benchdiff of that document against itself exits 0.
#   3. mc_benchdiff against a synthetically slowed re-run (the
#      --slowdown-us busy-wait knob) exits nonzero — the regression
#      gate fires end-to-end.
#   4. The committed BENCH_*.json trajectory still diffs cleanly:
#      schema understood, smoke cell ids overlap the committed
#      default-suite cells. Absolute throughput is machine-dependent,
#      so this diff uses a deliberately generous threshold and only
#      catches catastrophic (>95%) collapses or id/schema drift.
#   5. The committed trajectory itself improved: the newest
#      BENCH_*.json beats the previous one by the --min-speedup
#      floor on every shared cell (both files were measured on the
#      same author machine, so a real ratio gate is meaningful).
#
# "Newest" is by PR number, so the files are version-sorted
# (BENCH_10 after BENCH_7); a self-check pins that ordering.
#
# Run from the repo root: tools/ci_bench_smoke.sh [build-dir]
set -eu

builddir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

bench="$builddir/tools/mc_bench"
if [ ! -x "$bench" ]; then
    echo "FAIL: $bench not built (build the default targets first)" >&2
    exit 1
fi

out="${MC_BENCH_SMOKE_DIR:-$builddir/bench-smoke}"
mkdir -p "$out"

echo "== bench smoke: measure =="
"$bench" --suite smoke --warmup 1 --trials 3 --out "$out/now.json"

echo "== bench smoke: schema sanity =="
python3 - "$out/now.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == 2, doc["schema"]
assert doc["tool"] == "mc_bench"
assert doc["suite"] == "smoke"
for key in ("gitSha", "compiler", "buildType"):
    assert isinstance(doc["env"][key], str) and doc["env"][key]
assert doc["protocol"]["trials"] == 3
assert len(doc["cells"]) > 0
for cell in doc["cells"]:
    assert cell["medianRefsPerSec"] > 0, cell["id"]
    assert len(cell["samples"]) == 3, cell["id"]
    assert cell["allocCalls"] >= 0
    ref = cell["phases"]["refProcessing"]
    # The steady-state gate: the per-access inner loop must be
    # allocation-free for every scheme in the suite.
    assert ref["allocCalls"] == 0, (cell["id"], ref)
    assert ref["allocFrees"] == 0, (cell["id"], ref)
print("schema OK:", len(doc["cells"]), "cells,",
      "refProcessing allocation-free")
EOF

echo "== bench smoke: self-diff must pass =="
python3 tools/mc_benchdiff.py "$out/now.json" "$out/now.json"

echo "== bench smoke: synthetic slowdown must be caught =="
"$bench" --suite smoke --warmup 1 --trials 3 \
    --slowdown-us 200000 --out "$out/slow.json" 2>/dev/null
if python3 tools/mc_benchdiff.py "$out/now.json" "$out/slow.json" \
    > "$out/slow-diff.txt" 2>&1; then
    echo "FAIL: mc_benchdiff did not flag a 200ms/trial slowdown" >&2
    cat "$out/slow-diff.txt" >&2
    exit 1
fi
echo "slowdown regression detected (as required)"

# Oldest-to-newest order of BENCH_<n>.json names on stdin.
bench_order() {
    sort -V
}

echo "== bench smoke: trajectory ordering self-check =="
newest="$(printf 'BENCH_10.json\nBENCH_7.json\n' | bench_order | tail -1)"
if [ "$newest" != "BENCH_10.json" ]; then
    echo "FAIL: BENCH_10.json must order after BENCH_7.json," \
         "got newest=$newest" >&2
    exit 1
fi
echo "BENCH_10.json orders after BENCH_7.json"

baseline="$(ls BENCH_*.json 2>/dev/null | bench_order | tail -1 || true)"
if [ -n "$baseline" ]; then
    echo "== bench smoke: diff vs committed $baseline =="
    # Cross-machine: gate only on schema/id compatibility and
    # total collapse, not on CI-runner speed.
    python3 tools/mc_benchdiff.py --threshold 95 \
        "$baseline" "$out/now.json"
else
    echo "NOTICE: no committed BENCH_*.json found; skipping" \
         "trajectory diff"
fi

previous="$(ls BENCH_*.json 2>/dev/null | bench_order | tail -2 \
            | head -1 || true)"
if [ -n "$previous" ] && [ "$previous" != "$baseline" ]; then
    echo "== bench smoke: trajectory $previous -> $baseline =="
    # Both committed files came from the same author machine, so a
    # genuine speedup floor holds: the refs/sec war must advance.
    # 1.2x is deliberately below the measured per-cell speedups of
    # the newest PR — it catches a regressed re-measure, not noise.
    python3 tools/mc_benchdiff.py --min-speedup 1.2 \
        "$previous" "$baseline"
else
    echo "NOTICE: fewer than two committed BENCH_*.json files;" \
         "skipping trajectory-improvement gate"
fi

echo "bench smoke: all checks passed"
