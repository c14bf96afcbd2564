#!/bin/sh
# Sanitizer CI leg: configure a separate build tree with ASan+UBSan
# enabled and run the whole test suite under it, then build the
# parallel-runner tests under ThreadSanitizer (TSan cannot be
# combined with ASan, so it gets its own build tree) and run them.
# Run from the repo root: tools/ci_sanitize.sh [build-dir]
set -eu

builddir="${1:-build-sanitize}"

cmake -B "$builddir" -S . -DMORPHCACHE_SANITIZE=ON
cmake --build "$builddir" -j "$(nproc)"
ctest --test-dir "$builddir" --output-on-failure -j "$(nproc)"

# ThreadSanitizer pass over everything that runs cells on threads:
# parallelMap, the campaign executor's claim and heartbeat threads,
# the per-run registries, and the shared logging / profiler sinks
# must be race-free under oversubscription.
tsandir="${builddir}-tsan"
cmake -B "$tsandir" -S . -DMORPHCACHE_TSAN=ON
cmake --build "$tsandir" -j "$(nproc)" --target mc_tests
# Outside ctest, so give the run its tree's temporary directory
# (tests/CMakeLists.txt) rather than a /tmp shared with other trees.
TEST_TMPDIR="$tsandir/tests/tmp/" "$tsandir"/tests/mc_tests \
    --gtest_filter='ParallelMap.*:SweepSeed.*:Executor.*:Campaign.*'
