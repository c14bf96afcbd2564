/**
 * @file
 * Tests for the virtual-filesystem seam and fault injection.
 *
 * The headline contracts under test:
 *
 *  - every durability primitive routes through the process-wide Vfs,
 *    so FaultyVfs can make any call site fail and the degradation
 *    contract (DESIGN.md section 15) is observable: transient faults
 *    retry with seeded-jitter backoff, persistent faults escape as
 *    typed IoError, and no injected history leaves a torn artifact;
 *  - the per-site audit regressions: short writes are carried by the
 *    write loops, fsync/close failures are errors (not swallowed), a
 *    manifest append never retries once a byte landed, the fold
 *    discards torn bytes merged into a later complete line, and a
 *    re-init that cannot remove a stale result file fails typed;
 *  - the lease read is errno-precise: ENOENT/ESTALE mean benignly
 *    gone (the readdir/open reap race), everything else means a
 *    lease exists but is unreadable — reclaim, don't fresh-claim;
 *  - trace sinks resume under faults: a failing resume-truncate is
 *    a typed error with the pre-resume file intact.
 */

#include <gtest/gtest.h>

#include <cerrno>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/serial.hh"
#include "io/faulty_vfs.hh"
#include "io/vfs.hh"
#include "runner/lease.hh"
#include "runner/manifest.hh"
#include "stats/tracing.hh"

namespace morphcache {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
fileText(const std::string &path)
{
    const std::vector<std::uint8_t> raw = readFileBytes(path);
    return std::string(raw.begin(), raw.end());
}

void
writeText(const std::string &path, const std::string &text)
{
    vfsWriteWholeFile(path, text.data(), text.size(),
                      /*want_fsync=*/false);
}

/** A base that truncates every write to at most 3 bytes — the
 * partial-write regression rig for the callers' write loops. */
class ShortWriteVfs final : public Vfs
{
  public:
    explicit ShortWriteVfs(Vfs &base) : base_(base) {}

    int
    openFile(const std::string &path, int flags,
             unsigned int mode) override
    {
        return base_.openFile(path, flags, mode);
    }
    long
    readFd(int fd, void *buf, std::size_t n) override
    {
        return base_.readFd(fd, buf, n);
    }
    long
    writeFd(int fd, const void *buf, std::size_t n) override
    {
        ++shortened_;
        return base_.writeFd(fd, buf,
                             std::min<std::size_t>(n, 3));
    }
    int fsyncFd(int fd) override { return base_.fsyncFd(fd); }
    int closeFd(int fd) override { return base_.closeFd(fd); }
    int
    renamePath(const std::string &from,
               const std::string &to) override
    {
        return base_.renamePath(from, to);
    }
    int
    linkPath(const std::string &from,
             const std::string &to) override
    {
        return base_.linkPath(from, to);
    }
    int
    unlinkPath(const std::string &path) override
    {
        return base_.unlinkPath(path);
    }
    int
    truncatePath(const std::string &path,
                 std::uint64_t len) override
    {
        return base_.truncatePath(path, len);
    }
    int
    mkdirPath(const std::string &path) override
    {
        return base_.mkdirPath(path);
    }
    bool
    existsPath(const std::string &path) override
    {
        return base_.existsPath(path);
    }
    void sleepMs(std::uint64_t ms) override { base_.sleepMs(ms); }

    std::uint64_t shortened() const { return shortened_; }

  private:
    Vfs &base_;
    std::uint64_t shortened_ = 0;
};

// ---------------------------------------------------------------
// The seam itself
// ---------------------------------------------------------------

TEST(Vfs, WholeFileRoundTripThroughRealVfs)
{
    const std::string path = tmpPath("io_roundtrip.bin");
    const std::string body = "seam round trip\n\x01\x02\x03";
    writeText(path, body);
    EXPECT_EQ(fileText(path), body);
    vfs().unlinkPath(path);
}

TEST(Vfs, MissingFileReadIsTypedWithErrno)
{
    try {
        vfsReadWholeFile(tmpPath("io_does_not_exist.bin"));
        FAIL() << "expected IoError";
    } catch (const IoError &err) {
        EXPECT_EQ(err.errnoCode(), ENOENT);
        EXPECT_FALSE(err.transient());
        EXPECT_NE(std::string(err.what()).find("open"),
                  std::string::npos);
    }
}

TEST(Vfs, TransienceTaxonomy)
{
    for (int code : {EINTR, EAGAIN, EBUSY, ESTALE, ETIMEDOUT,
                     ENFILE, EMFILE}) {
        EXPECT_TRUE(errnoIsTransient(code)) << code;
    }
    for (int code : {ENOSPC, EIO, EDQUOT, EROFS, EACCES, ENOENT}) {
        EXPECT_FALSE(errnoIsTransient(code)) << code;
    }
}

TEST(Vfs, IoErrorIsACkptError)
{
    // Existing recovery paths catch CkptError; the typed subclass
    // must flow through them.
    try {
        throwIo(VfsOp::Write, "somewhere.bin", -ENOSPC);
    } catch (const CkptError &err) {
        EXPECT_NE(std::string(err.what()).find("somewhere.bin"),
                  std::string::npos);
    }
}

TEST(Vfs, WriteAllRidesOutShortWrites)
{
    ShortWriteVfs shorty(vfs());
    const std::string path = tmpPath("io_short_writes.bin");
    std::string body;
    for (int i = 0; i < 100; ++i)
        body += "0123456789";
    {
        ScopedVfs swap(&shorty);
        writeText(path, body);
    }
    EXPECT_EQ(fileText(path), body);
    // 1000 bytes at <= 3 per write proves the loop carried on.
    EXPECT_GE(shorty.shortened(), 334u);
    vfs().unlinkPath(path);
}

// ---------------------------------------------------------------
// FaultyVfs mechanics
// ---------------------------------------------------------------

TEST(FaultyVfs, SameSeedSameSchedule)
{
    const std::string path = tmpPath("io_seeded.bin");
    const std::string body(256, 'x');
    auto run = [&](std::uint64_t seed) {
        FaultPlan plan;
        plan.seed = seed;
        plan.faultPermille = 300;
        FaultyVfs faulty(vfs(), plan);
        ScopedVfs swap(&faulty);
        std::string outcome;
        for (int i = 0; i < 20; ++i) {
            try {
                writeText(path, body);
                outcome += 'o';
            } catch (const IoError &err) {
                outcome += err.transient() ? 't' : 'p';
            }
        }
        return outcome + ":" + std::to_string(faulty.faultCount());
    };
    const std::string first = run(42);
    EXPECT_EQ(first, run(42));
    // Some faults fired and some writes went through: the schedule
    // exercised both paths.
    EXPECT_NE(first.find_first_of("tp"), std::string::npos);
    EXPECT_NE(first.find('o'), std::string::npos);
    vfs().unlinkPath(path);
}

TEST(FaultyVfs, ForcedFaultsMatchOpAndPath)
{
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Open, EIO, "only_this.bin");
    ScopedVfs swap(&faulty);

    // A different path sails through and leaves the fault armed.
    const std::string other = tmpPath("io_other.bin");
    writeText(other, "ok");
    EXPECT_EQ(faulty.armedFaults(), 1u);

    const std::string target = tmpPath("io_only_this.bin");
    EXPECT_THROW(writeText(target, "boom"), IoError);
    EXPECT_EQ(faulty.armedFaults(), 0u);
    vfs().unlinkPath(other);
}

// ---------------------------------------------------------------
// atomicWriteFile degradation contract
// ---------------------------------------------------------------

TEST(AtomicWrite, TransientFaultRetriesWithBackoff)
{
    const std::string path = tmpPath("io_aw_transient.bin");
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Rename, ESTALE);
    faulty.failNext(VfsOp::Write, EAGAIN, ".tmp.");
    {
        ScopedVfs swap(&faulty);
        const std::string body = "retried into place";
        atomicWriteFile(path, body.data(), body.size());
    }
    EXPECT_EQ(fileText(path), "retried into place");
    // Both transient faults consumed a backoff sleep (virtualized
    // to a counter — no wall-clock spent).
    EXPECT_GE(faulty.sleepCount(), 2u);
    vfs().unlinkPath(path);
}

TEST(AtomicWrite, PersistentFaultsAreTypedAndLeaveOldBytes)
{
    const std::string path = tmpPath("io_aw_persist.bin");
    writeText(path, "old consistent bytes");

    const struct
    {
        VfsOp op;
        int code;
        const char *where;
    } sites[] = {
        {VfsOp::Open, EACCES, ".tmp."},
        {VfsOp::Write, ENOSPC, ".tmp."},
        {VfsOp::Fsync, EIO, ".tmp."},
        {VfsOp::Close, EIO, ".tmp."},
        {VfsOp::Rename, EROFS, ""},
    };
    for (const auto &site : sites) {
        FaultPlan plan;
        plan.faultPermille = 0;
        FaultyVfs faulty(vfs(), plan);
        faulty.failNext(site.op, site.code, site.where);
        ScopedVfs swap(&faulty);
        try {
            atomicWriteFile(path, "new", 3);
            FAIL() << "expected IoError from "
                   << vfsOpName(site.op);
        } catch (const IoError &err) {
            EXPECT_EQ(err.errnoCode(), site.code)
                << vfsOpName(site.op);
            EXPECT_FALSE(err.transient());
        }
    }
    // Five injected failures, zero torn destinations.
    EXPECT_EQ(fileText(path), "old consistent bytes");
    vfs().unlinkPath(path);
}

TEST(AtomicWrite, RotationFailureLeavesChainUndisturbed)
{
    const std::string path = tmpPath("io_aw_rotate.bin");
    const std::string prev = path + ".prev";
    vfs().unlinkPath(prev);
    writeText(path, "generation one");

    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Rename, EIO, ".prev");
    {
        ScopedVfs swap(&faulty);
        EXPECT_THROW(
            atomicWriteFileWithRotation(path, "generation two", 14),
            IoError);
    }
    // The failed rotation fired before the old chain was touched.
    EXPECT_EQ(fileText(path), "generation one");
    EXPECT_FALSE(vfs().existsPath(prev));

    atomicWriteFileWithRotation(path, "generation two", 14);
    EXPECT_EQ(fileText(path), "generation two");
    EXPECT_EQ(fileText(prev), "generation one");
    vfs().unlinkPath(path);
    vfs().unlinkPath(prev);
}

TEST(AtomicWrite, CrashPointSweepLeavesCompleteOldOrNew)
{
    const std::string path = tmpPath("io_aw_crash.bin");
    const std::string prev = path + ".prev";
    const std::string before = "AAAA before the crash";
    const std::string after = "BBBBBB after, longer than before";

    // Sweep the plug across every operation of the rotation +
    // write + publish sequence; op 40 is past the end (no crash).
    for (std::uint64_t crash_at = 1; crash_at <= 40; ++crash_at) {
        vfs().unlinkPath(path);
        vfs().unlinkPath(prev);
        writeText(path, before);

        FaultPlan plan;
        plan.faultPermille = 0;
        plan.crashAtOp = crash_at;
        FaultyVfs faulty(vfs(), plan);
        {
            ScopedVfs swap(&faulty);
            try {
                atomicWriteFileWithRotation(path, after.data(),
                                            after.size());
            } catch (const IoError &) {
                // the quarantine path; state checked below
            }
        }
        // Recovery view (checked with the real vfs): the primary
        // or its .prev fallback must hold complete bytes of one
        // generation — never a prefix, never a mix.
        if (vfs().existsPath(path)) {
            const std::string text = fileText(path);
            EXPECT_TRUE(text == before || text == after)
                << "crashAtOp=" << crash_at << " tore '" << text
                << "'";
        } else {
            ASSERT_TRUE(vfs().existsPath(prev))
                << "crashAtOp=" << crash_at
                << " lost both generations";
            EXPECT_EQ(fileText(prev), before)
                << "crashAtOp=" << crash_at;
        }
    }
    vfs().unlinkPath(path);
    vfs().unlinkPath(prev);
}

// ---------------------------------------------------------------
// Manifest appender + fold hardening
// ---------------------------------------------------------------

std::string
freshManifest(const char *name, std::size_t cells,
              std::uint64_t hash)
{
    const std::string path = tmpPath(name);
    std::string doc = manifestHeaderLine(cells, hash);
    for (std::size_t i = 0; i < cells; ++i) {
        doc += "{\"type\":\"cell\",\"index\":" + std::to_string(i) +
               ",\"status\":\"pending\",\"attempts\":0}\n";
    }
    writeText(path, doc);
    return path;
}

TEST(ManifestIo, AppendRetriesCleanTransientWriteFailure)
{
    const std::string path =
        freshManifest("io_m_retry.jsonl", 2, 7);
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    // Zero bytes land (forced faults error out the whole write),
    // and EAGAIN is transient: the record must retry and land once.
    faulty.failNext(VfsOp::Write, EAGAIN, "io_m_retry");
    {
        ScopedVfs swap(&faulty);
        ManifestLog log(path);
        log.appendCell(1, "done", 1);
    }
    EXPECT_GE(faulty.sleepCount(), 1u);
    const std::vector<CellProgress> progress =
        foldManifest(path, 2, 7);
    EXPECT_EQ(progress[0].status, "pending");
    EXPECT_EQ(progress[1].status, "done");
    EXPECT_EQ(progress[1].attempts, 1u);
    vfs().unlinkPath(path);
}

TEST(ManifestIo, AppendNeverRetriesAfterFsyncOrCloseFailure)
{
    const std::string path =
        freshManifest("io_m_fsync.jsonl", 1, 7);
    for (const VfsOp op : {VfsOp::Fsync, VfsOp::Close}) {
        FaultPlan plan;
        plan.faultPermille = 0;
        FaultyVfs faulty(vfs(), plan);
        faulty.failNext(op, EIO, "io_m_fsync");
        ScopedVfs swap(&faulty);
        ManifestLog log(path);
        try {
            log.appendCell(0, "running", 1);
            FAIL() << "expected IoError from " << vfsOpName(op);
        } catch (const IoError &err) {
            EXPECT_EQ(err.errnoCode(), EIO);
            EXPECT_FALSE(err.transient());
        }
        // Never retried: no backoff sleep was taken.
        EXPECT_EQ(faulty.sleepCount(), 0u);
    }
    vfs().unlinkPath(path);
}

TEST(ManifestIo, FoldDiscardsTornBytesMergedIntoALine)
{
    // A worker died after landing a prefix of its record (no
    // newline); another process's complete O_APPEND record then
    // glued onto it, forming one line with two "{"type":" markers.
    // The fold must parse the *last* record — the one the
    // newline-writer supplied whole — and never see the torn
    // prefix's fields (the extractor takes a key's first
    // occurrence, so parsing the merged line whole would fabricate
    // a phantom index-0 event).
    const std::string path = tmpPath("io_m_torn.jsonl");
    std::string doc = manifestHeaderLine(2, 7);
    doc += "{\"type\":\"cell\",\"index\":0,\"status\":\"pending\","
           "\"attempts\":0}\n";
    doc += "{\"type\":\"cell\",\"index\":1,\"status\":\"pending\","
           "\"attempts\":0}\n";
    doc += "{\"type\":\"cell\",\"index\":0,\"status\":\"failed\","
           "\"attempts\":9"; // torn: no closing brace, no newline
    doc += "{\"type\":\"cell\",\"index\":1,\"status\":\"done\","
           "\"attempts\":1}\n";
    writeText(path, doc);

    const std::vector<CellProgress> progress =
        foldManifest(path, 2, 7);
    EXPECT_EQ(progress[0].status, "pending");
    EXPECT_EQ(progress[0].attempts, 0u);
    EXPECT_EQ(progress[1].status, "done");
    EXPECT_EQ(progress[1].attempts, 1u);
    vfs().unlinkPath(path);
}

TEST(ManifestIo, InitFailsWhenAStaleResultCannotBeRemoved)
{
    // A re-init must not leave an earlier campaign's result behind:
    // workers skip any cell whose result file exists, and merge
    // would render the old campaign's bytes as this one's.
    CampaignPlan plan;
    plan.base.seed = 9;
    plan.mixLo = plan.mixHi = 1;
    const std::string path = tmpPath("io_m_reinit.jsonl");
    initManifestWithPlan(path, plan);
    const std::string result =
        cellResultPath(campaignStateDir(path), 0);
    writeText(result, "{\"stale\":true}\n");

    plan.base.seed = 10;
    FaultPlan fplan;
    fplan.faultPermille = 0;
    FaultyVfs faulty(vfs(), fplan);
    faulty.failNext(VfsOp::Unlink, EIO, "cell0000.result");
    {
        ScopedVfs swap(&faulty);
        try {
            initManifestWithPlan(path, plan);
            FAIL() << "expected IoError for the surviving result";
        } catch (const IoError &err) {
            EXPECT_EQ(err.errnoCode(), EIO);
            EXPECT_NE(std::string(err.what()).find("cell0000.result"),
                      std::string::npos)
                << err.what();
        }
    }
    EXPECT_EQ(faulty.armedFaults(), 0u);
    vfs().unlinkPath(result);
    vfs().unlinkPath(path);
}

TEST(ManifestIo, InitRetriesATransientStaleResultUnlink)
{
    // A transient errno (ESTALE on NFS) on the stale-result unlink
    // is retried like atomicWriteFile's faults: init succeeds and
    // the earlier campaign's result is gone.
    CampaignPlan plan;
    plan.base.seed = 9;
    plan.mixLo = plan.mixHi = 1;
    const std::string path = tmpPath("io_m_reinit_estale.jsonl");
    initManifestWithPlan(path, plan);
    const std::string result =
        cellResultPath(campaignStateDir(path), 0);
    writeText(result, "{\"stale\":true}\n");

    plan.base.seed = 10;
    FaultPlan fplan;
    fplan.faultPermille = 0;
    FaultyVfs faulty(vfs(), fplan);
    faulty.failNext(VfsOp::Unlink, ESTALE, "cell0000.result");
    {
        ScopedVfs swap(&faulty);
        initManifestWithPlan(path, plan);
    }
    EXPECT_EQ(faulty.armedFaults(), 0u);
    EXPECT_FALSE(vfs().existsPath(result));
    EXPECT_EQ(planFromManifest(path).base.seed, 10u);
    vfs().unlinkPath(path);
}

// ---------------------------------------------------------------
// Lease protocol under faults
// ---------------------------------------------------------------

std::string
freshLeaseDir(const char *name)
{
    const std::string dir = tmpPath(name);
    vfs().mkdirPath(dir);
    vfs().unlinkPath(cellLeasePath(dir, 0));
    vfs().unlinkPath(cellResultPath(dir, 0));
    return dir;
}

TEST(LeaseIo, EnoentDuringScanIsBenignlyGone)
{
    // The reap/claim race: the lease vanished between the scan and
    // our open. ENOENT must read as Missing — a fresh generation-1
    // claim — not as corruption.
    const std::string dir = freshLeaseDir("io_lease_enoent");
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Open, ENOENT, ".lease");
    ScopedVfs swap(&faulty);

    LeaseInfo mine;
    EXPECT_EQ(tryClaimCell(dir, 0, "w1:1", 60.0, mine),
              LeaseClaim::Claimed);
    EXPECT_EQ(mine.generation, 1u);
    releaseLease(dir, mine);
}

TEST(LeaseIo, UnreadableLeaseIsCorruptNotMissing)
{
    // An EIO on open means a lease *exists* but cannot be read.
    // Treating it as Missing would fresh-claim via link(2) against
    // the live file (losing to EEXIST forever); the errno-precise
    // read reclaims through the generation fence instead.
    const std::string dir = freshLeaseDir("io_lease_eio");
    LeaseInfo original;
    ASSERT_EQ(tryClaimCell(dir, 0, "w1:1", 60.0, original),
              LeaseClaim::Claimed);

    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Open, EIO, ".lease");
    ScopedVfs swap(&faulty);

    LeaseInfo thief;
    EXPECT_EQ(tryClaimCell(dir, 0, "w2:2", 60.0, thief),
              LeaseClaim::Claimed);
    EXPECT_GE(thief.generation, 2u);
    releaseLease(dir, thief);
}

TEST(LeaseIo, ScratchWriteFailureIsALeaseError)
{
    // The lease API's contract is LeaseError — the executor's
    // claim loop catches it and moves to the next cell; a raw
    // IoError would unwind the claim thread.
    const std::string dir = freshLeaseDir("io_lease_scratch");
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Write, ENOSPC, ".tmp.");
    ScopedVfs swap(&faulty);

    LeaseInfo mine;
    EXPECT_THROW(tryClaimCell(dir, 0, "w1:1", 60.0, mine),
                 LeaseError);
}

TEST(LeaseIo, ReapSkipsLeaseDeletedUnderIt)
{
    const std::string dir = freshLeaseDir("io_lease_reap");
    LeaseInfo mine;
    ASSERT_EQ(tryClaimCell(dir, 0, "w1:1", 60.0, mine),
              LeaseClaim::Claimed);

    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Open, ENOENT, ".lease");
    {
        ScopedVfs swap(&faulty);
        // The lease reads as gone: nothing to reap, no typed error,
        // and crucially no unlink of the live lease.
        EXPECT_EQ(reapStaleLeases(dir, 1), 0u);
    }
    EXPECT_TRUE(leaseStillMine(dir, mine));
    releaseLease(dir, mine);
}

// ---------------------------------------------------------------
// Trace sinks under faults
// ---------------------------------------------------------------

TEST(TraceIo, JsonlResumeTruncatesToCheckpointOffset)
{
    const std::string path = tmpPath("io_trace_resume.jsonl");
    std::uint64_t offset_at_ckpt = 0;
    {
        JsonlTraceSink sink(path);
        Tracer tracer(&sink);
        TraceEvent a("epoch");
        tracer.emit(a);
        offset_at_ckpt = sink.byteOffset();
        TraceEvent b("merge"); // after the "checkpoint": discarded
        tracer.emit(b);
        sink.finish();
    }
    {
        JsonlTraceSink sink(path, offset_at_ckpt);
        EXPECT_EQ(sink.byteOffset(), offset_at_ckpt);
        Tracer tracer(&sink);
        TraceEvent c("split");
        tracer.emit(c);
        sink.finish();
    }
    const std::string text = fileText(path);
    EXPECT_NE(text.find("\"epoch\""), std::string::npos);
    EXPECT_EQ(text.find("\"merge\""), std::string::npos);
    EXPECT_NE(text.find("\"split\""), std::string::npos);
    vfs().unlinkPath(path);
}

TEST(TraceIo, ResumeTruncateFailureLeavesFileIntact)
{
    const std::string path = tmpPath("io_trace_trunc.jsonl");
    writeText(path, "{\"type\": \"epoch\"}\n{\"type\": \"merge\"}\n");

    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    faulty.failNext(VfsOp::Truncate, EIO);
    {
        ScopedVfs swap(&faulty);
        try {
            JsonlTraceSink sink(path, 18);
            FAIL() << "expected IoError";
        } catch (const IoError &err) {
            EXPECT_EQ(err.errnoCode(), EIO);
        }
    }
    // The typed error escaped *before* the file was opened for
    // writing: every pre-resume byte is still there.
    EXPECT_EQ(fileText(path),
              "{\"type\": \"epoch\"}\n{\"type\": \"merge\"}\n");
    vfs().unlinkPath(path);
}

TEST(TraceIo, EventWriteFailureIsTypedAndOffsetHonest)
{
    const std::string path = tmpPath("io_trace_evfail.jsonl");
    FaultPlan plan;
    plan.faultPermille = 0;
    FaultyVfs faulty(vfs(), plan);
    {
        ScopedVfs swap(&faulty);
        JsonlTraceSink sink(path);
        Tracer tracer(&sink);
        TraceEvent ok("epoch");
        tracer.emit(ok);
        const std::uint64_t off_before = sink.byteOffset();
        EXPECT_GT(off_before, 0u);

        faulty.failNext(VfsOp::Write, ENOSPC);
        TraceEvent doomed("merge");
        EXPECT_THROW(tracer.emit(doomed), IoError);
        // Forced write faults land zero bytes, and the recorded
        // offset must never run ahead of the file.
        EXPECT_EQ(sink.byteOffset(), off_before);
        sink.finish();
    }
    EXPECT_EQ(fileText(path).find("\"merge\""), std::string::npos);
    vfs().unlinkPath(path);
}

} // namespace
} // namespace morphcache
