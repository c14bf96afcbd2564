#!/bin/sh
# Chaos CI leg: prove the work-stealing campaign executor survives
# any worker dying. Four independent mc_campaign worker processes
# drain one manifest while a seeded schedule SIGKILLs random
# workers (relaunching a fresh one in each victim's slot) until the
# campaign completes; the merged report and stats bytes are then
# diffed against an uninterrupted single-worker run of the same
# plan.
# Run from the repo root: tools/ci_chaos_campaign.sh [build-dir]
set -eu

builddir="${1:-build}"
camp="$builddir/tools/mc_campaign"
work="$(mktemp -d)"

pid_1=; pid_2=; pid_3=; pid_4=
cleanup() {
    kill -KILL $pid_1 $pid_2 $pid_3 $pid_4 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

plan="--mixes 1-6 --cores 8 --epochs 5 --refs 20000 --seed 9"

# Reference: one worker process nobody interrupted.
$camp init --manifest "$work/ref.jsonl" $plan
$camp work --manifest "$work/ref.jsonl" -j4 -q
$camp merge --manifest "$work/ref.jsonl" \
    --stats-out "$work/ref.stats" > "$work/ref.out"

# The campaign under chaos: init embeds the plan in the manifest so
# every worker rebuilds the identical cell list on its own.
$camp init --manifest "$work/chaos.jsonl" $plan

start_worker() {
    # Short lease TTL so stolen cells change hands quickly;
    # per-epoch checkpoints so stolen cells resume mid-flight.
    $camp work --manifest "$work/chaos.jsonl" -j2 \
        --lease-ttl 2 --ckpt-every 1 \
        --worker-id "chaos-$1" -q > /dev/null 2>&1 &
    eval "pid_$1=\$!"
}

workers=4
kills=6
n=1
while [ "$n" -le "$workers" ]; do
    start_worker "$n"
    n=$((n + 1))
done

# Seeded kill schedule: "victim delay" pairs derived from a fixed
# seed, so reruns of the same commit kill the same workers at the
# same offsets.
awk -v n="$kills" -v w="$workers" 'BEGIN {
    srand(9)
    for (i = 0; i < n; i++)
        printf "%d %.2f\n", int(rand() * w) + 1, 0.20 + rand() * 0.80
}' > "$work/schedule"

while read -r victim delay; do
    sleep "$delay"
    if $camp status --manifest "$work/chaos.jsonl" -q \
            > /dev/null 2>&1; then
        break  # campaign already complete; nothing left to disrupt
    fi
    eval "vpid=\$pid_$victim"
    echo "SIGKILL worker chaos-$victim (pid $vpid) after ${delay}s"
    kill -KILL "$vpid" 2>/dev/null || true
    wait "$vpid" 2>/dev/null || true
    start_worker "$victim"
done < "$work/schedule"

# Survivors keep claiming (and stealing the victims' leases) until
# every cell has a durable result; workers exit 0 on completion.
for n in 1 2 3 4; do
    eval "pid=\$pid_$n"
    wait "$pid" 2>/dev/null || true
done
pid_1=; pid_2=; pid_3=; pid_4=

$camp status --manifest "$work/chaos.jsonl" || {
    echo "campaign incomplete after the chaos schedule" >&2
    exit 1
}

# The merged bytes must match the uninterrupted run exactly,
# whatever the kill schedule did.
$camp merge --manifest "$work/chaos.jsonl" \
    --stats-out "$work/chaos.stats" > "$work/chaos.out"
diff "$work/ref.out" "$work/chaos.out"
diff "$work/ref.stats" "$work/chaos.stats"
echo "chaos campaign: merged bytes identical to uninterrupted run"
