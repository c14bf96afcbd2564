#!/bin/sh
# Kill-and-resume CI leg: prove the checkpoint/restore determinism
# contract end to end. A campaign's only mc_campaign worker is
# SIGKILLed at a random-but-seeded point mid-flight, a fresh worker
# finishes the campaign, and the merged stdout report plus
# stats-JSON bytes are diffed against a campaign that was never
# interrupted. A single run gets the same treatment through
# SIGTERM -> exit 75 -> --restore.
# Run from the repo root: tools/ci_kill_resume.sh [build-dir]
set -eu

builddir="${1:-build}"
sim="$builddir/tools/morphcache_sim"
camp="$builddir/tools/mc_campaign"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

plan="--mixes 1-6 --cores 8 --epochs 5 --refs 20000 --seed 9"
# Per-epoch checkpoints so a killed cell resumes mid-flight; a short
# lease TTL so the rerun need not wait long for the dead worker's
# leases to expire.
work_args="--ckpt-every 1 --lease-ttl 2"

# Reference: the campaign nobody interrupted.
$camp init --manifest "$work/ref.jsonl" $plan
$camp work --manifest "$work/ref.jsonl" -j4 $work_args
$camp merge --manifest "$work/ref.jsonl" \
    --stats-out "$work/ref.stats" > "$work/ref.out"

# A stats file that cannot be written fails the merge and names the
# path, instead of reporting success over a missing file.
if $camp merge --manifest "$work/ref.jsonl" --stats-out /dev/full \
    > /dev/null 2> "$work/full.err"; then
    echo "merge --stats-out /dev/full exited 0" >&2
    exit 1
fi
grep -q "/dev/full" "$work/full.err"

# A spec no cell can run fails init, which then writes no manifest,
# instead of leaving a campaign whose every cell fails or aborts. A
# malformed static triple must not run as some other spelling's
# topology under its own config hash.
for bad in "--scheme bogus" "--cores 0" \
    "--cores 4 --scheme static:2:2:1junk"; do
    if $camp init --manifest "$work/bad.jsonl" $bad 2> /dev/null; then
        echo "init $bad exited 0" >&2
        exit 1
    fi
    if [ -e "$work/bad.jsonl" ]; then
        echo "init $bad wrote a manifest" >&2
        exit 1
    fi
done

# Seeded kill point: derive the delay (0.30s..1.29s) from the seed
# so reruns of the same commit kill at the same wall-clock offset.
frac=$(awk 'BEGIN { srand(9); printf "%.2f", 0.30 + rand() }')
echo "killing campaign worker after ${frac}s"

# One claim thread, so the campaign outlasts the kill point even on
# a fast host (-j4 can finish the plan in under 0.4 s).
$camp init --manifest "$work/kill.jsonl" $plan
$camp work --manifest "$work/kill.jsonl" -j1 $work_args \
    > "$work/kill.log" 2>&1 &
pid=$!
sleep "$frac"
kill -KILL "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

# Rerun: once the dead worker's leases expire, its in-progress cells
# restore from their checkpoints and the rest run fresh; finished
# cells keep their result files.
$camp work --manifest "$work/kill.jsonl" -j4 $work_args
$camp merge --manifest "$work/kill.jsonl" \
    --stats-out "$work/kill.stats" > "$work/kill.out"

diff "$work/ref.out" "$work/kill.out"
diff "$work/ref.stats" "$work/kill.stats"
echo "campaign kill-resume: byte-identical"

# Single-run leg: SIGTERM must checkpoint and exit 75 (resumable),
# and the resumed run must reproduce stdout, stats, and trace bytes.
run_args="--workload mix:3 --cores 8 --epochs 6 --refs 60000 \
    --seed 7"
$sim $run_args --stats-out "$work/run_ref.stats" \
    --trace "$work/run_ref.trace" > "$work/run_ref.out"

$sim $run_args --stats-out "$work/run.stats" \
    --trace "$work/run.trace" \
    --checkpoint "$work/run.ckpt" --ckpt-every 1 \
    > "$work/run.out" 2>&1 &
pid=$!
sleep "$frac"
kill -TERM "$pid" 2>/dev/null || true
set +e
wait "$pid"
status=$?
set -e
if [ "$status" -ne 75 ] && [ "$status" -ne 0 ]; then
    echo "interrupted run exited $status (want 75 or 0)" >&2
    exit 1
fi
if [ "$status" -eq 75 ]; then
    $sim $run_args --stats-out "$work/run.stats" \
        --trace "$work/run.trace" \
        --restore "$work/run.ckpt" > "$work/run.out"
fi

# stdout differs only in the self-referential stats path line.
sed "s,$work/run\.stats,$work/run_ref.stats," "$work/run.out" \
    > "$work/run.norm"
diff "$work/run_ref.out" "$work/run.norm"
diff "$work/run_ref.stats" "$work/run.stats"
diff "$work/run_ref.trace" "$work/run.trace"
echo "single-run kill-resume: byte-identical"

# The inspector must read and structurally verify the final chain.
"$builddir"/tools/mc_ckpt --verify "$work/run.ckpt" > /dev/null \
    || { echo "mc_ckpt --verify failed" >&2; exit 1; }
echo "mc_ckpt --verify: ok"

# A baseline is a fixed topology with level policies: its restored
# hierarchy must pass the same invariant replay.
$sim --workload mix:3 --cores 8 --epochs 2 --refs 4000 --seed 7 \
    --scheme pipp --checkpoint "$work/pipp.ckpt" > /dev/null
"$builddir"/tools/mc_ckpt --verify "$work/pipp.ckpt" \
    > "$work/pipp.verify" \
    || { echo "mc_ckpt --verify failed on pipp" >&2; exit 1; }
grep -qx "invariants : ok" "$work/pipp.verify" \
    || { echo "pipp checkpoint invariants not ok" >&2; exit 1; }
echo "mc_ckpt --verify pipp: invariants ok"
