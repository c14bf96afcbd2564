/**
 * @file
 * Tests for campaigns: the work-stealing executor, the lease
 * protocol, and the result merge.
 *
 * The headline contracts under test:
 *
 *  - a campaign — one worker process at any job count, or a fleet
 *    of them — produces merged report and stats bytes identical to
 *    an in-memory reference that runs each cell once, including
 *    when the run is interrupted and rerun, or a worker is
 *    SIGKILLed mid-flight and its cells are stolen;
 *  - failed cells exhaust their retry budget, stay marked in the
 *    manifest and the report, and are left out of the stats;
 *  - stale-lease fencing: a zombie worker (one whose lease was
 *    reclaimed while it was presumed dead) cannot commit a result
 *    over the newer attempt — the write throws a typed LeaseError;
 *  - corruption never diverges or hangs: flipped lease bits, a
 *    manifest truncated mid-line, and deleted result files all end
 *    in typed errors or clean reclamation and a byte-identical
 *    final merge;
 *  - retry backoff jitter is a pure function of campaign identity
 *    and stays inside its bounds.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/serial.hh"
#include "runner/executor.hh"
#include "runner/lease.hh"

namespace morphcache {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

CampaignPlan
smallPlan(std::uint32_t mixes)
{
    CampaignPlan plan;
    plan.base.workload = "mix:1"; // replaced per cell
    plan.base.scheme = "morph";
    plan.base.cores = 16;
    plan.base.epochs = 5;
    plan.base.refs = 3000;
    plan.base.seed = 9;
    plan.mixLo = 1;
    plan.mixHi = mixes;
    plan.sweepSeeds = 1;
    return plan;
}

void
removeCampaignFiles(const std::string &manifest, std::size_t cells)
{
    std::remove(manifest.c_str());
    const std::string dir = campaignStateDir(manifest);
    for (std::size_t i = 0; i < cells; ++i) {
        std::remove(cellCkptPath(dir, i).c_str());
        std::remove((cellCkptPath(dir, i) + ".prev").c_str());
        std::remove(cellResultPath(dir, i).c_str());
        std::remove(cellLeasePath(dir, i).c_str());
    }
}

/**
 * Reference bytes for a cell list, computed in memory: each cell
 * runs once through runCellAttempt, and a cell that throws stands
 * for one that failed all `1 + retries` attempts. Independent of
 * manifests, leases, and result files.
 */
RenderedReport
serialReference(const std::vector<CampaignCell> &cells,
                std::uint32_t retries = 0)
{
    std::vector<CellOutcome> outcomes;
    for (const CampaignCell &cell : cells) {
        try {
            outcomes.push_back(
                runCellAttempt(cell, "", CellAttemptOptions{}));
        } catch (const std::exception &err) {
            CellOutcome o;
            o.failed = true;
            o.label = cell.label;
            o.seed = cell.spec.seed;
            o.attempts = 1 + retries;
            o.error = err.what();
            outcomes.push_back(std::move(o));
        }
    }
    return renderCampaignReport(cells, outcomes);
}

/** Init a fresh manifest for `plan`, drain it with one worker of
 * `jobs` claim threads, and merge the results. */
RenderedReport
drainFresh(const CampaignPlan &plan, const std::string &manifest,
           unsigned jobs)
{
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = jobs;
    EXPECT_TRUE(runExecutor(plan.cells(), eopts).campaignComplete);
    return mergeCampaignResults(manifest, plan.cells());
}

/**
 * A manifest for an arbitrary cell list, which no plan generates:
 * the header alone (every cell folds to pending) and the state
 * directory.
 */
void
writeBareManifest(const std::string &manifest,
                  const std::vector<CampaignCell> &cells)
{
    removeCampaignFiles(manifest, cells.size());
    const std::string header =
        manifestHeaderLine(cells.size(), campaignHash(cells));
    atomicWriteFile(manifest, header.data(), header.size());
    ::mkdir(campaignStateDir(manifest).c_str(), 0777);
}

// ---------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------

std::string
freshLeaseDir(const std::string &name)
{
    const std::string dir = tmpPath(name);
    ::mkdir(dir.c_str(), 0777);
    std::remove(cellLeasePath(dir, 0).c_str());
    std::remove(cellResultPath(dir, 0).c_str());
    return dir;
}

TEST(Lease, SerializeParseRoundTrip)
{
    LeaseInfo lease;
    lease.index = 7;
    lease.worker = "host-a:123";
    lease.pid = 123;
    lease.host = "host-a";
    lease.generation = 4;
    lease.deadline = 1754700000.25;
    lease.attempts = 2;

    LeaseInfo back;
    ASSERT_TRUE(parseLease(serializeLease(lease), back));
    EXPECT_EQ(back.index, lease.index);
    EXPECT_EQ(back.worker, lease.worker);
    EXPECT_EQ(back.pid, lease.pid);
    EXPECT_EQ(back.host, lease.host);
    EXPECT_EQ(back.generation, lease.generation);
    EXPECT_DOUBLE_EQ(back.deadline, lease.deadline);
    EXPECT_EQ(back.attempts, lease.attempts);
}

TEST(Lease, FreshClaimThenHeldThenRelease)
{
    const std::string dir = freshLeaseDir("lease_basic.d");

    LeaseInfo a;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-a", 60.0, a),
              LeaseClaim::Claimed);
    EXPECT_EQ(a.generation, 1u);

    LeaseInfo b;
    EXPECT_EQ(tryClaimCell(dir, 0, "worker-b", 60.0, b),
              LeaseClaim::Held);

    EXPECT_TRUE(leaseStillMine(dir, a));
    releaseLease(dir, a);
    EXPECT_FALSE(leaseStillMine(dir, a));

    // Released: worker B can now claim fresh.
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-b", 60.0, b),
              LeaseClaim::Claimed);
    EXPECT_EQ(b.generation, 1u);
    releaseLease(dir, b);
}

TEST(Lease, ExpiredLeaseIsReclaimedWithGenerationBump)
{
    const std::string dir = freshLeaseDir("lease_expire.d");

    LeaseInfo dead;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-dead", 0.001, dead),
              LeaseClaim::Claimed);
    dead.attempts = 3;
    // Persist the attempt count the way a worker's heartbeat would.
    while (renewLease(dir, dead, 0.001) &&
           leaseNow() <= dead.deadline) {
    }
    while (leaseNow() <= dead.deadline)
        ::usleep(1000);

    LeaseInfo thief;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-thief", 60.0, thief),
              LeaseClaim::Claimed);
    EXPECT_EQ(thief.generation, dead.generation + 1);
    EXPECT_EQ(thief.attempts, 3u)
        << "reclaim must inherit the dead owner's attempt count";
    releaseLease(dir, thief);
}

TEST(Lease, RenewPushesDeadlineAndFailsAfterTheft)
{
    const std::string dir = freshLeaseDir("lease_renew.d");

    LeaseInfo a;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-a", 60.0, a),
              LeaseClaim::Claimed);
    const double before = a.deadline;
    ASSERT_TRUE(renewLease(dir, a, 120.0));
    EXPECT_GT(a.deadline, before);

    // Simulate a reclaim while worker A was descheduled.
    LeaseInfo thief = a;
    thief.worker = "worker-thief";
    thief.generation = a.generation + 1;
    const std::string doc = serializeLease(thief);
    atomicWriteFile(cellLeasePath(dir, 0), doc.data(), doc.size());

    EXPECT_FALSE(renewLease(dir, a, 120.0))
        << "renew must refuse once the lease belongs to another";
    releaseLease(dir, thief);
}

/**
 * The stale-fencing acceptance test: a zombie (claim reclaimed out
 * from under it) must have its late result write rejected with a
 * typed LeaseError, leaving no result file; the live owner's commit
 * then lands.
 */
TEST(Lease, ZombieResultCommitIsFencedOff)
{
    const std::string dir = freshLeaseDir("lease_fence.d");

    LeaseInfo zombie;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-zombie", 0.001, zombie),
              LeaseClaim::Claimed);
    while (leaseNow() <= zombie.deadline)
        ::usleep(1000);

    LeaseInfo live;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-live", 60.0, live),
              LeaseClaim::Claimed);
    ASSERT_GT(live.generation, zombie.generation);

    EXPECT_THROW(
        commitCellResult(dir, 0, zombie, "{\"zombie\":true}\n"),
        LeaseError);
    EXPECT_FALSE(fileExists(cellResultPath(dir, 0)))
        << "the fenced write must not leave a result file";

    commitCellResult(dir, 0, live, "{\"live\":true}\n");
    EXPECT_TRUE(fileExists(cellResultPath(dir, 0)));

    const std::vector<std::uint8_t> bytes =
        readFileBytes(cellResultPath(dir, 0));
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()),
              "{\"live\":true}\n");
    releaseLease(dir, live);
    std::remove(cellResultPath(dir, 0).c_str());
}

TEST(Lease, CorruptLeaseReadsAsCorruptAndIsReclaimable)
{
    const std::string dir = freshLeaseDir("lease_corrupt.d");

    LeaseInfo a;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-a", 60.0, a),
              LeaseClaim::Claimed);

    // Flip bits across the lease record (seeded, exhaustive enough
    // to hit type tag, braces, numbers, and the trailing newline).
    const std::string path = cellLeasePath(dir, 0);
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    for (std::size_t at = 0; at < bytes.size(); at += 7) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[at] ^= 0x20;
        atomicWriteFile(path, flipped.data(), flipped.size());
        LeaseInfo out;
        const LeaseRead state = readLease(path, out);
        // Some flips keep the record parseable (label text); every
        // unparseable one must be Corrupt — never a crash, never
        // Missing.
        EXPECT_NE(state, LeaseRead::Missing);
    }

    // Outright garbage is Corrupt and immediately reclaimable.
    const char garbage[] = "\x01\x02not json at all";
    atomicWriteFile(path, garbage, sizeof(garbage));
    LeaseInfo out;
    EXPECT_EQ(readLease(path, out), LeaseRead::Corrupt);

    LeaseInfo claimer;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-b", 60.0, claimer),
              LeaseClaim::Claimed);
    releaseLease(dir, claimer);
}

TEST(Lease, ReapRemovesExpiredAndFinishedLeases)
{
    const std::string dir = freshLeaseDir("lease_reap.d");
    std::remove(cellLeasePath(dir, 1).c_str());
    std::remove(cellResultPath(dir, 1).c_str());

    LeaseInfo expired;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-a", 0.001, expired),
              LeaseClaim::Claimed);
    LeaseInfo finished;
    ASSERT_EQ(tryClaimCell(dir, 1, "worker-a", 60.0, finished),
              LeaseClaim::Claimed);
    commitCellResult(dir, 1, finished, "{\"done\":true}\n");
    while (leaseNow() <= expired.deadline)
        ::usleep(1000);

    EXPECT_EQ(reapStaleLeases(dir, 2), 2u);
    EXPECT_FALSE(fileExists(cellLeasePath(dir, 0)));
    EXPECT_FALSE(fileExists(cellLeasePath(dir, 1)));
    std::remove(cellResultPath(dir, 1).c_str());
}

// ---------------------------------------------------------------
// Retry backoff jitter
// ---------------------------------------------------------------

TEST(RetryDelay, DeterministicWithinBoundsAndSpread)
{
    const std::uint64_t hash = 0x1234abcd5678ef90ULL;
    for (std::uint64_t attempt = 1; attempt <= 12; ++attempt) {
        std::uint64_t base = 100ULL
                             << (attempt - 1 < 10 ? attempt - 1 : 10);
        if (base > 2000)
            base = 2000;
        for (std::uint64_t cell = 0; cell < 16; ++cell) {
            const std::uint64_t ms =
                retryDelayMs(hash, cell, attempt);
            EXPECT_GE(ms, base / 2);
            EXPECT_LE(ms, base);
            // Pure function of (hash, cell, attempt).
            EXPECT_EQ(ms, retryDelayMs(hash, cell, attempt));
        }
    }
    // Different cells must not retry in lockstep (that thundering
    // herd is the whole point of the jitter).
    bool spread = false;
    for (std::uint64_t cell = 1; cell < 16 && !spread; ++cell) {
        spread = retryDelayMs(hash, cell, 3) !=
                 retryDelayMs(hash, 0, 3);
    }
    EXPECT_TRUE(spread);
    // And a different campaign draws a different schedule.
    EXPECT_NE(retryDelayMs(hash, 0, 3) +
                  retryDelayMs(hash, 1, 3) +
                  retryDelayMs(hash, 2, 3),
              retryDelayMs(hash ^ 1, 0, 3) +
                  retryDelayMs(hash ^ 1, 1, 3) +
                  retryDelayMs(hash ^ 1, 2, 3));
}

// ---------------------------------------------------------------
// Campaign plan embedding
// ---------------------------------------------------------------

TEST(CampaignPlan, RoundTripsThroughManifest)
{
    CampaignPlan plan = smallPlan(3);
    plan.base.faults.classificationFlipChance = 0.125;
    const std::string manifest = tmpPath("plan_rt.jsonl");
    initManifestWithPlan(manifest, plan);

    const CampaignPlan back = planFromManifest(manifest);
    EXPECT_EQ(back.mixLo, plan.mixLo);
    EXPECT_EQ(back.mixHi, plan.mixHi);
    EXPECT_EQ(back.sweepSeeds, plan.sweepSeeds);
    EXPECT_EQ(describe(back.base), describe(plan.base));
    EXPECT_EQ(back.base.seed, plan.base.seed);
    // Cell lists (labels, specs, seeds) are identical, so the
    // campaign hash — the manifest binding — matches too.
    EXPECT_EQ(campaignHash(back.cells()),
              campaignHash(plan.cells()));
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(CampaignPlan, ManifestWithoutPlanIsTyped)
{
    const CampaignPlan plan = smallPlan(1);
    const std::string manifest = tmpPath("plan_missing.jsonl");
    writeBareManifest(manifest, plan.cells()); // no plan line
    EXPECT_THROW(planFromManifest(manifest), CkptError);
    removeCampaignFiles(manifest, plan.cells().size());
}

// ---------------------------------------------------------------
// Executor: byte identity, stealing, corruption
// ---------------------------------------------------------------

TEST(Executor, MergedBytesMatchSerialCampaign)
{
    const CampaignPlan plan = smallPlan(3);
    const RenderedReport reference =
        serialReference(plan.cells());

    const std::string manifest = tmpPath("exec_run.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.leaseTtlSec = 30.0;
    const ExecutorReport report =
        runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(report.campaignComplete);
    EXPECT_EQ(report.completed, plan.cells().size());
    EXPECT_EQ(report.failedCells, 0u);

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, FailingCellsExhaustBudgetIdenticallyToSerial)
{
    CampaignPlan plan = smallPlan(2);
    plan.base.scheme = "bogus"; // buildRun throws ConfigError
    const RenderedReport reference =
        serialReference(plan.cells(), 1);

    const std::string manifest = tmpPath("exec_fail.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.retryCells = 1;
    eopts.leaseTtlSec = 30.0;
    const ExecutorReport report =
        runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(report.campaignComplete);
    EXPECT_EQ(report.failedCells, plan.cells().size());

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_NE(merged.reportText.find("after 2 attempts"),
              std::string::npos)
        << merged.reportText;
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, HeaderMismatchIsTyped)
{
    const CampaignPlan plan = smallPlan(2);
    const std::string manifest = tmpPath("exec_mismatch.jsonl");
    initManifestWithPlan(manifest, plan);

    const CampaignPlan other = smallPlan(1);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    EXPECT_THROW(runExecutor(other.cells(), eopts), CkptError);
    removeCampaignFiles(manifest, plan.cells().size());
}

/**
 * The tentpole crash test: SIGKILL a whole worker process
 * mid-campaign, then let a second worker steal its leased cells
 * (resuming from their checkpoints) and finish. The merge must be
 * byte-identical to the in-memory reference.
 */
TEST(Executor, SigkilledWorkerIsStolenAndBytesMatchSerial)
{
    CampaignPlan plan = smallPlan(4);
    plan.base.refs = 20000; // slow enough to die mid-flight
    const RenderedReport reference =
        serialReference(plan.cells());

    const std::string manifest = tmpPath("exec_kill.jsonl");
    removeCampaignFiles(manifest, plan.cells().size());
    initManifestWithPlan(manifest, plan);

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.ckptEvery = 1;
    eopts.leaseTtlSec = 0.5; // steal fast: the worker is dead
    eopts.workerId = "victim";

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        runExecutor(plan.cells(), eopts);
        _exit(0);
    }

    // Wait for the victim to make durable progress (manifest events
    // beyond the init lines), then kill it without warning.
    const long initSize = static_cast<long>(
        readFileBytes(manifest).size());
    for (int i = 0; i < 500; ++i) {
        std::FILE *f = std::fopen(manifest.c_str(), "rb");
        if (f) {
            std::fseek(f, 0, SEEK_END);
            const long size = std::ftell(f);
            std::fclose(f);
            if (size > initSize)
                break;
        }
        ::usleep(10000);
    }
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);

    // The thief: same campaign, different worker id. It must steal
    // the victim's expired leases, resume from checkpoints, and
    // drain the campaign.
    ExecutorOptions thief = eopts;
    thief.workerId = "thief";
    const ExecutorReport report =
        runExecutor(plan.cells(), thief);
    EXPECT_TRUE(report.campaignComplete);

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, ManifestTruncatedMidLineIsToleratedAndCompletes)
{
    const CampaignPlan plan = smallPlan(2);
    const RenderedReport reference =
        serialReference(plan.cells());

    const std::string manifest = tmpPath("exec_trunc.jsonl");
    initManifestWithPlan(manifest, plan);

    // Tear the final line the way a killed writer would: chop the
    // manifest mid-record, no trailing newline.
    std::vector<std::uint8_t> bytes = readFileBytes(manifest);
    ASSERT_GT(bytes.size(), 10u);
    bytes.resize(bytes.size() - 10);
    atomicWriteFile(manifest, bytes.data(), bytes.size());

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.leaseTtlSec = 30.0;
    const ExecutorReport report =
        runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(report.campaignComplete);

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, DeletedResultFileIsRebuiltToIdenticalBytes)
{
    const CampaignPlan plan = smallPlan(2);
    const RenderedReport reference =
        serialReference(plan.cells());

    const std::string manifest = tmpPath("exec_del.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.leaseTtlSec = 30.0;
    ASSERT_TRUE(
        runExecutor(plan.cells(), eopts).campaignComplete);

    // Sabotage: delete one result (a lost file on the shared
    // filesystem). A rerun notices and recomputes exactly it.
    const std::string dir = campaignStateDir(manifest);
    ASSERT_EQ(std::remove(cellResultPath(dir, 1).c_str()), 0);

    const ExecutorReport rerun = runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(rerun.campaignComplete);
    EXPECT_EQ(rerun.completed, 1u)
        << "only the deleted cell must rerun";

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, FlippedLeaseBitsEndInCleanReclamationNotDivergence)
{
    const CampaignPlan plan = smallPlan(2);
    const RenderedReport reference =
        serialReference(plan.cells());

    const std::string manifest = tmpPath("exec_flip.jsonl");
    initManifestWithPlan(manifest, plan);

    // Corrupt pre-planted leases for every cell: the executor must
    // treat them as stale, reclaim, and still match reference
    // bytes.
    const std::string dir = campaignStateDir(manifest);
    for (std::size_t i = 0; i < plan.cells().size(); ++i) {
        const char junk[] = "{\"type\":\"lease\",\"ind\x01garbled";
        atomicWriteFile(cellLeasePath(dir, i), junk, sizeof(junk));
    }

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.leaseTtlSec = 30.0;
    const ExecutorReport report =
        runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(report.campaignComplete);
    EXPECT_EQ(report.reclaimed, plan.cells().size());

    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

/**
 * Claim threads of one worker that reclaim the same stale lease at
 * once all read back the same (worker, generation). Exactly one of
 * them may drive the cell; the others must neither rerun it nor get
 * fenced by the winner's commit.
 */
TEST(Executor, SiblingThreadsReclaimAStaleLeaseOnce)
{
    const CampaignPlan plan = smallPlan(1);
    const std::string manifest = tmpPath("exec_sibling.jsonl");
    initManifestWithPlan(manifest, plan);

    const std::string dir = campaignStateDir(manifest);
    LeaseInfo dead;
    ASSERT_EQ(tryClaimCell(dir, 0, "worker-dead", 0.001, dead),
              LeaseClaim::Claimed);
    while (leaseNow() <= dead.deadline)
        ::usleep(1000);

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 4;
    const ExecutorReport report = runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(report.campaignComplete);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.reclaimed, 1u);
    EXPECT_EQ(report.fenced, 0u);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Executor, InterruptFlagStopsResumably)
{
    const CampaignPlan plan = smallPlan(2);
    const std::string manifest = tmpPath("exec_int.jsonl");
    initManifestWithPlan(manifest, plan);

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 1;
    eopts.leaseTtlSec = 30.0;

    requestCkptInterrupt();
    const ExecutorReport stopped =
        runExecutor(plan.cells(), eopts);
    clearCkptInterrupt();
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_FALSE(stopped.campaignComplete);

    const RenderedReport reference =
        serialReference(plan.cells());
    const ExecutorReport resumed =
        runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(resumed.campaignComplete);
    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

// ---------------------------------------------------------------
// Campaigns: one worker process, start to finish
// ---------------------------------------------------------------

TEST(Campaign, ReportIsIdenticalAcrossJobCounts)
{
    const CampaignPlan plan = smallPlan(3);
    const std::string one = tmpPath("camp_j1.jsonl");
    const std::string four = tmpPath("camp_j4.jsonl");
    const RenderedReport serial = drainFresh(plan, one, 1);
    const RenderedReport parallel = drainFresh(plan, four, 4);
    removeCampaignFiles(one, plan.cells().size());
    removeCampaignFiles(four, plan.cells().size());

    EXPECT_EQ(serial.reportText, parallel.reportText);
    EXPECT_EQ(serial.statsJsonArray, parallel.statsJsonArray);
    EXPECT_EQ(serial.done, plan.cells().size());
    EXPECT_EQ(serial.failed, 0u);
}

TEST(Campaign, ResumeOfFinishedCampaignReplaysResultBytes)
{
    const CampaignPlan plan = smallPlan(2);
    const std::string manifest = tmpPath("camp_done.jsonl");
    const RenderedReport first = drainFresh(plan, manifest, 2);

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    const ExecutorReport rerun = runExecutor(plan.cells(), eopts);
    EXPECT_TRUE(rerun.campaignComplete);
    EXPECT_EQ(rerun.completed, 0u) << "a finished cell never reruns";

    const RenderedReport replay =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(first.reportText, replay.reportText);
    EXPECT_EQ(first.statsJsonArray, replay.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Campaign, FailedCellsAreMarkedAndExcludedNotDropped)
{
    std::vector<CampaignCell> cells = smallPlan(2).cells();
    cells[1].spec.scheme = "bogus"; // buildRun throws ConfigError
    cells[1].label = "broken cell";

    const std::string manifest = tmpPath("camp_fail.jsonl");
    writeBareManifest(manifest, cells);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.retryCells = 1;
    EXPECT_TRUE(runExecutor(cells, eopts).campaignComplete);
    const RenderedReport report = mergeCampaignResults(manifest, cells);

    EXPECT_EQ(report.done, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.reportText.find("FAILED"), std::string::npos);
    EXPECT_NE(report.reportText.find("after 2 attempts"),
              std::string::npos)
        << report.reportText;
    // The failed cell's stats must not pollute the aggregate.
    EXPECT_EQ(report.statsJsonArray.find("bogus"),
              std::string::npos);

    // The manifest says so explicitly.
    const std::vector<std::uint8_t> bytes = readFileBytes(manifest);
    const std::string text(bytes.begin(), bytes.end());
    EXPECT_NE(text.find("\"status\":\"failed\""), std::string::npos);
    EXPECT_NE(text.find("\"attempts\":2"), std::string::npos);
    removeCampaignFiles(manifest, cells.size());
}

TEST(Campaign, WatchdogCancelsOverrunningCells)
{
    const CampaignPlan plan = smallPlan(1);
    const std::string manifest = tmpPath("camp_watchdog.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.cellTimeoutSec = 1e-9; // expires before the first epoch
    EXPECT_EQ(runExecutor(plan.cells(), eopts).failedCells, 1u);

    const RenderedReport report =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(report.failed, 1u);
    EXPECT_NE(report.reportText.find("watchdog"), std::string::npos)
        << report.reportText;
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Campaign, ResumeAgainstMismatchedManifestIsTyped)
{
    const CampaignPlan plan = smallPlan(2);
    const std::string manifest = tmpPath("camp_mismatch.jsonl");
    drainFresh(plan, manifest, 1);

    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    EXPECT_THROW(runExecutor(smallPlan(1).cells(), eopts), CkptError);
    removeCampaignFiles(manifest, plan.cells().size());
}

TEST(Campaign, InterruptFlagStopsResumablyAndResumeCompletes)
{
    const CampaignPlan plan = smallPlan(2);
    const RenderedReport reference = serialReference(plan.cells());

    const std::string manifest = tmpPath("camp_int.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    requestCkptInterrupt();
    const ExecutorReport stopped = runExecutor(plan.cells(), eopts);
    clearCkptInterrupt();
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_EQ(mergeCampaignResults(manifest, plan.cells()).missing,
              plan.cells().size());

    const ExecutorReport resumed = runExecutor(plan.cells(), eopts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.campaignComplete);
    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

/**
 * The crash test: fork a child that runs the campaign's only worker,
 * SIGKILL it mid-flight (no atexit, no flush — the hard way), then
 * rerun the worker in this process and demand byte-identical output
 * to the in-memory reference. The rerun first waits out the dead
 * worker's short lease TTL.
 */
TEST(Campaign, SigkilledCampaignResumesToIdenticalBytes)
{
    CampaignPlan plan = smallPlan(4);
    plan.base.refs = 20000; // slow enough to die mid-flight
    const RenderedReport reference = serialReference(plan.cells());

    const std::string manifest = tmpPath("camp_kill.jsonl");
    initManifestWithPlan(manifest, plan);
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 2;
    eopts.ckptEvery = 1;
    eopts.leaseTtlSec = 0.5;

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: run the worker and exit quietly if the
        // parent never gets around to killing us.
        runExecutor(plan.cells(), eopts);
        _exit(0);
    }

    // Give the child a moment to make durable progress, then kill
    // it without warning.
    const std::size_t initSize = readFileBytes(manifest).size();
    for (int i = 0; i < 200; ++i) {
        if (readFileBytes(manifest).size() > initSize + 200)
            break;
        ::usleep(10000);
    }
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);

    // Rerun: whatever state the kill left behind must finish into
    // the exact reference bytes.
    const ExecutorReport resumed = runExecutor(plan.cells(), eopts);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.campaignComplete);
    const RenderedReport merged =
        mergeCampaignResults(manifest, plan.cells());
    EXPECT_EQ(merged.done, plan.cells().size());
    EXPECT_EQ(merged.reportText, reference.reportText);
    EXPECT_EQ(merged.statsJsonArray, reference.statsJsonArray);
    removeCampaignFiles(manifest, plan.cells().size());
}

} // namespace
} // namespace morphcache
