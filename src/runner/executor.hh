/**
 * @file
 * Work-stealing campaign executor: N independent worker processes
 * draining one manifest.
 *
 * runExecutor() is the engine behind `mc_campaign work`. Each
 * invocation is one *worker process*; any number of them — launched
 * by `--workers M`, or by hand in separate shells, or on separate
 * hosts sharing a filesystem — cooperate on the same campaign with
 * no coordinator:
 *
 *  - workers *claim* pending cells through the lease protocol
 *    (lease.hh): atomic link(2) claims, heartbeat renewals from a
 *    per-process heartbeat thread, generation-bump reclaims of
 *    expired leases;
 *  - a claimed cell runs through runCellAttempt — resuming from
 *    the newest per-cell checkpoint — and retries with the seeded
 *    deterministic backoff jitter (retryDelayMs), recording every
 *    status transition in the shared manifest;
 *  - results are committed through the stale-lease fence
 *    (commitCellResult), so a worker that was descheduled past its
 *    lease deadline and resurrects can never clobber a newer
 *    attempt;
 *  - a worker keeps scanning until every cell has a durable result
 *    (stealing cells whose owners die along the way), so the fleet
 *    as a whole survives any worker dying at any point. A claim
 *    thread stops early only when every unfinished cell is held by
 *    a sibling thread of its own process.
 *
 * Because every cell's result bytes are a pure function of its
 * RunSpec, `mc_campaign merge` (mergeCampaignResults) over the
 * result files emits bytes identical to an uninterrupted run, for
 * any worker count and any kill schedule.
 */

#ifndef MORPHCACHE_RUNNER_EXECUTOR_HH
#define MORPHCACHE_RUNNER_EXECUTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/manifest.hh"

namespace morphcache {

/**
 * Thrown out of runCellAttempt() when the cooperative interrupt
 * flag is raised; the in-progress checkpoint has already been
 * written, so the cell resumes from where it stopped.
 */
struct CellInterrupted
{
};

/** Knobs for a single cell attempt. */
struct CellAttemptOptions
{
    /** Checkpoint every N recorded epochs (0 = off). */
    std::uint32_t ckptEvery = 0;
    /** Wall-clock watchdog per attempt, seconds (0 = off). */
    double cellTimeoutSec = 0.0;
};

/**
 * One try of one cell: build the run, restore from `ckpt_path` (or
 * its .prev fallback) when a checkpoint exists, step epochs —
 * checkpointing every ckptEvery and honouring the interrupt flag
 * and watchdog — and return the completed outcome with its
 * stats-registry JSON (attempts is left for the caller to fill).
 */
CellOutcome runCellAttempt(const CampaignCell &cell,
                           const std::string &ckpt_path,
                           const CellAttemptOptions &opts);

struct ExecutorOptions
{
    /** Manifest this worker drains (must already exist). */
    std::string manifestPath;
    /** Concurrent cells in this worker process (claim threads). */
    unsigned jobs = 1;
    std::uint32_t ckptEvery = 0;
    /** Extra tries for a failed cell (jittered backoff). */
    std::uint32_t retryCells = 0;
    double cellTimeoutSec = 0.0;
    /** Lease TTL: a worker silent this long is presumed dead. */
    double leaseTtlSec = 30.0;
    /** Worker identity in leases; empty = "<host>:<pid>". */
    std::string workerId;
};

struct ExecutorReport
{
    /** Results this worker committed (done + terminally failed). */
    std::size_t completed = 0;
    /** Of those, terminal failures. */
    std::size_t failedCells = 0;
    /** Expired/corrupt leases this worker took over. */
    std::size_t reclaimed = 0;
    /** Result commits rejected by stale-lease fencing. */
    std::size_t fenced = 0;
    /** Stopped on the interrupt flag; relaunch to finish. */
    bool interrupted = false;
    /** Every cell has a durable result file. */
    bool campaignComplete = false;
};

/**
 * Drain the campaign as one worker process: claim, run, commit, and
 * steal until every cell has a result (campaignComplete) or the
 * interrupt flag stops us (interrupted). `cells` must be the
 * campaign's full cell list (planFromManifest(...).cells()); the
 * manifest header is verified against it. Throws CkptError on a
 * campaign/manifest mismatch and ConfigError on malformed options;
 * lease races and cell failures are handled internally and never
 * escape.
 */
ExecutorReport runExecutor(const std::vector<CampaignCell> &cells,
                           const ExecutorOptions &opts);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_EXECUTOR_HH
