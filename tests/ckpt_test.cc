/**
 * @file
 * Tests for checkpoint/restore.
 *
 * The headline contract under test: a run restored from a
 * checkpoint finishes with results byte-identical to the same-seed
 * run that was never interrupted — for every scheme. Corruption
 * never crashes or silently diverges: every bit flip either
 * restores from the previous checkpoint in the chain or fails with
 * a typed CkptError. Campaigns, which resume cells through the same
 * checkpoints, are tested in executor_test.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/textfmt.hh"
#include "runner/run_factory.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"
#include "workload/trace.hh"

namespace morphcache {
namespace {

std::string
tmpPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + name;
}

RunSpec
smallSpec(const std::string &scheme)
{
    RunSpec spec;
    spec.workload = "mix:3";
    spec.scheme = scheme;
    spec.cores = 16;
    spec.epochs = 5;
    spec.refs = 3000;
    spec.seed = 77;
    return spec;
}

/** Everything a finished run can be compared on, bit-exactly. */
struct RunOutput
{
    RunResult result;
    std::string registryJson;
};

bool
sameOutput(const RunOutput &a, const RunOutput &b)
{
    if (a.registryJson != b.registryJson)
        return false;
    if (a.result.avgThroughput != b.result.avgThroughput ||
        a.result.performance != b.result.performance ||
        a.result.avgIpc != b.result.avgIpc ||
        a.result.epochs.size() != b.result.epochs.size())
        return false;
    for (std::size_t i = 0; i < a.result.epochs.size(); ++i) {
        const EpochMetrics &x = a.result.epochs[i];
        const EpochMetrics &y = b.result.epochs[i];
        if (x.ipc != y.ipc || x.throughput != y.throughput ||
            x.misses != y.misses)
            return false;
    }
    return true;
}

/** A live run with everything a checkpoint serializes. */
struct LiveRun
{
    BuiltRun built;
    StatsRegistry registry;
    Tracer tracer;
    std::unique_ptr<Simulation> simulation;

    explicit LiveRun(const RunSpec &spec) : built(buildRun(spec))
    {
        built.system->registerStats(registry);
        simulation = std::make_unique<Simulation>(
            *built.system, *built.workload, built.sim);
        simulation->setRegistry(&registry);
    }

    CkptRunState
    state()
    {
        CkptRunState s;
        s.simulation = simulation.get();
        s.system = built.system.get();
        s.workload = built.workload.get();
        s.registry = &registry;
        s.tracer = &tracer;
        return s;
    }

    RunOutput
    finish()
    {
        while (!simulation->done())
            simulation->stepEpoch();
        RunOutput out;
        out.result = simulation->finish();
        out.registryJson = registry.jsonString();
        return out;
    }
};

RunOutput
runUninterrupted(const RunSpec &spec)
{
    LiveRun run(spec);
    return run.finish();
}

/**
 * Step `split` epochs, checkpoint, restore into a fresh run, and
 * finish both halves — the resumed output must match the
 * uninterrupted run bit-for-bit.
 */
void
expectResumeMatches(const RunSpec &spec, std::uint32_t split)
{
    const RunOutput whole = runUninterrupted(spec);

    const std::string path =
        tmpPath("resume_" + spec.scheme + ".ckpt");
    {
        LiveRun first(spec);
        for (std::uint32_t i = 0; i < split; ++i)
            first.simulation->stepEpoch();
        writeCheckpoint(path, spec, first.state());
    }

    LiveRun second(spec);
    const RestoreOutcome outcome =
        readCheckpoint(path, spec, second.state());
    EXPECT_FALSE(outcome.usedFallback);
    const RunOutput resumed = second.finish();

    EXPECT_TRUE(sameOutput(whole, resumed))
        << "scheme " << spec.scheme << " diverged after resume";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

TEST(Ckpt, ResumeMatchesUninterruptedMorph)
{
    expectResumeMatches(smallSpec("morph"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedStatic)
{
    expectResumeMatches(smallSpec("static:4:4:1"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedPipp)
{
    expectResumeMatches(smallSpec("pipp"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedDsr)
{
    expectResumeMatches(smallSpec("dsr"), 2);
}

TEST(Ckpt, ResumeMatchesUninterruptedUcp)
{
    expectResumeMatches(smallSpec("ucp"), 2);
}

TEST(Ckpt, ResumeFromWarmupBoundaryAndLateSplits)
{
    // Splits at 0 (nothing recorded) and 4 (one epoch left)
    // exercise the warmup-capture and nearly-done edges.
    expectResumeMatches(smallSpec("morph"), 0);
    expectResumeMatches(smallSpec("morph"), 4);
}

TEST(Ckpt, WorkloadRoundTripContinuesIdentically)
{
    const RunSpec spec = smallSpec("morph");
    LiveRun a(spec);
    a.simulation->stepEpoch();
    a.simulation->stepEpoch();

    CkptWriter w;
    a.built.workload->saveState(w);
    LiveRun b(spec);
    CkptReader r("mem", w.buffer());
    b.built.workload->loadState(r);
    EXPECT_EQ(r.remaining(), 0u);

    // Both cursors now generate the identical reference stream.
    for (int i = 0; i < 100; ++i) {
        const MemAccess x =
            a.built.workload->next(static_cast<CoreId>(i % 16));
        const MemAccess y =
            b.built.workload->next(static_cast<CoreId>(i % 16));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.type, y.type);
    }
}

TEST(Ckpt, HistogramRoundTrip)
{
    Histogram h(0.0, 100.0, 10);
    h.add(5);
    h.add(50);
    h.add(5000);
    CkptWriter w;
    h.saveState(w);

    Histogram h2(0.0, 100.0, 10);
    CkptReader r("mem", w.buffer());
    h2.loadState(r);
    EXPECT_EQ(h2.totalCount(), h.totalCount());
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h2.bucketCount(i), h.bucketCount(i));

    Histogram wrong(0.0, 100.0, 4);
    CkptReader r2("mem", w.buffer());
    EXPECT_THROW(wrong.loadState(r2), CkptError);
}

TEST(Ckpt, TracerRoundTripResumesSequence)
{
    StringTraceSink sink;
    Tracer t(&sink);
    t.setEpoch(3);
    t.setTime(1234);
    TraceEvent ev("x");
    t.emit(ev);
    t.emit(ev);

    CkptWriter w;
    t.saveState(w);
    Tracer t2;
    CkptReader r("mem", w.buffer());
    t2.loadState(r);
    EXPECT_EQ(t2.epoch(), 3u);
    EXPECT_EQ(t2.time(), 1234u);
    EXPECT_EQ(t2.eventCount(), 2u);
}

TEST(Ckpt, RegistryRoundTripPreservesSnapshots)
{
    const RunSpec spec = smallSpec("morph");
    LiveRun a(spec);
    for (int i = 0; i < 3; ++i)
        a.simulation->stepEpoch();

    CkptWriter w;
    a.registry.saveState(w);
    LiveRun b(spec);
    CkptReader r("mem", w.buffer());
    b.registry.loadState(r);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(a.registry.csvString(), b.registry.csvString());
}

TEST(Ckpt, SpecHashMismatchIsRejectedWithBothValues)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("hash_mismatch.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }

    RunSpec other = spec;
    other.epochs = 9;
    LiveRun target(other);
    try {
        readCheckpoint(path, other, target.state());
        FAIL() << "spec-hash mismatch not detected";
    } catch (const CkptError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("config"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Ckpt, SeedMismatchIsRejected)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("seed_mismatch.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    // Same config hash (seed is outside describe()), wrong stream.
    RunSpec other = spec;
    other.seed = 78;
    LiveRun target(other);
    EXPECT_THROW(readCheckpoint(path, other, target.state()),
                 CkptError);
    std::remove(path.c_str());
}

TEST(Ckpt, VersionMismatchIsRejected)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("version.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }

    // Bump the version field and re-stamp the trailing checksum so
    // only the version check can object.
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    ASSERT_GT(bytes.size(), 16u);
    bytes[4] += 1;
    const std::uint64_t sum =
        fnv1a64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i) {
        bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    }
    atomicWriteFile(path, bytes.data(), bytes.size());

    LiveRun target(spec);
    try {
        readCheckpoint(path, spec, target.state());
        FAIL() << "version mismatch not detected";
    } catch (const CkptError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
    std::remove(path.c_str());
}

TEST(Ckpt, TruncationIsATypedError)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("trunc.ckpt");
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    std::vector<std::uint8_t> bytes = readFileBytes(path);
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          bytes.size() / 2, bytes.size() - 1}) {
        atomicWriteFile(path, bytes.data(), keep);
        LiveRun target(spec);
        EXPECT_THROW(readCheckpoint(path, spec, target.state()),
                     CkptError)
            << "truncation to " << keep << " bytes not typed";
    }
    std::remove(path.c_str());
}

/**
 * Corruption campaign: flip single bits all over a valid
 * checkpoint. With an intact `.prev` in the chain, every flip must
 * restore from the fallback; without one, every flip must fail
 * typed. Either way: no crash, no silent divergence.
 */
TEST(Ckpt, BitFlipCampaignNeverCrashesOrDiverges)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("flip.ckpt");
    const std::string prev = path + ".prev";
    {
        LiveRun run(spec);
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state()); // rotates .prev
    }
    const std::vector<std::uint8_t> good = readFileBytes(path);
    const std::vector<std::uint8_t> good_prev =
        readFileBytes(prev);
    const RunOutput whole = runUninterrupted(spec);

    Rng rng(2026);
    for (int trial = 0; trial < 48; ++trial) {
        const std::size_t byte = static_cast<std::size_t>(
            rng.next() % static_cast<std::uint64_t>(good.size()));
        const unsigned bit =
            static_cast<unsigned>(rng.next() % 8);

        std::vector<std::uint8_t> bad = good;
        bad[byte] = static_cast<std::uint8_t>(
            bad[byte] ^ (1u << bit));
        atomicWriteFile(path, bad.data(), bad.size());

        // With the chain intact the flip must fall back to .prev
        // and the resumed run must still match the uninterrupted
        // one exactly.
        {
            atomicWriteFile(prev, good_prev.data(),
                            good_prev.size());
            LiveRun target(spec);
            const RestoreOutcome outcome = restoreCheckpointChain(
                path, spec, target.state());
            EXPECT_TRUE(outcome.usedFallback)
                << "flip byte " << byte << " bit " << bit
                << " restored from a corrupt file";
            EXPECT_TRUE(sameOutput(whole, target.finish()))
                << "silent divergence at byte " << byte;
        }

        // Without a fallback the same flip is a typed failure.
        std::remove(prev.c_str());
        LiveRun target(spec);
        EXPECT_THROW(
            restoreCheckpointChain(path, spec, target.state()),
            CkptError)
            << "flip byte " << byte << " bit " << bit;
    }
    std::remove(path.c_str());
    std::remove(prev.c_str());
}

TEST(Ckpt, InspectReportsHeaderAndSections)
{
    const RunSpec spec = smallSpec("morph");
    const std::string path = tmpPath("inspect.ckpt");
    {
        LiveRun run(spec);
        // Two warmup epochs plus one recorded epoch.
        run.simulation->stepEpoch();
        run.simulation->stepEpoch();
        run.simulation->stepEpoch();
        writeCheckpoint(path, spec, run.state());
    }
    const CkptInfo info = inspectCheckpoint(path);
    EXPECT_EQ(info.version, ckptVersion);
    EXPECT_TRUE(info.checksumOk);
    EXPECT_EQ(info.seed, spec.seed);
    EXPECT_EQ(info.epochsCompleted, 1u);
    EXPECT_EQ(info.specHash, specHash(spec));
    EXPECT_EQ(describe(info.spec), describe(spec));
    ASSERT_EQ(info.sections.size(), 6u);
    EXPECT_EQ(info.sections[0].first, "SPEC");
    EXPECT_EQ(info.sections[1].first, "WKLD");
    EXPECT_EQ(info.sections[2].first, "SYST");
    EXPECT_EQ(info.sections[3].first, "SIMU");
    EXPECT_EQ(info.sections[4].first, "REGY");
    EXPECT_EQ(info.sections[5].first, "TRCE");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Pinned checkpoint bytes
// ---------------------------------------------------------------

/** A checkpointed run: a fixture label and the spec it runs. */
struct CkptCell
{
    std::string label;
    RunSpec spec;
};

/**
 * Every scheme on mix:3, morph on a multithreaded workload, and
 * morph under the recover policy with every fault class injected,
 * so the SYST section carries the checker, robustness (violations,
 * a quarantine) and injector state.
 */
std::vector<CkptCell>
pinnedCells()
{
    std::vector<CkptCell> cells;
    for (const char *scheme :
         {"morph", "static:4:4:1", "ucp", "pipp", "dsr"})
        cells.push_back({std::string(scheme) + "/mix:3",
                         smallSpec(scheme)});
    CkptCell parsec{"morph/parsec:canneal", smallSpec("morph")};
    parsec.spec.workload = "parsec:canneal";
    cells.push_back(parsec);
    CkptCell faulty{"morph-recover-faults/mix:3", smallSpec("morph")};
    faulty.spec.checkPolicy = "recover";
    faulty.spec.faults.acfvFlipsPerEpoch = 4;
    faulty.spec.faults.classificationFlipChance = 0.05;
    faulty.spec.faults.illegalTopologyChance = 0.5;
    faulty.spec.faults.busDropChance = 0.01;
    faulty.spec.faults.busDelayChance = 0.01;
    cells.push_back(faulty);
    return cells;
}

/**
 * A trace: workload replaying two recorded epochs of mix:3. Its SPEC
 * names the trace file's temporary path, so only its workload state
 * is pinned.
 */
RunSpec
traceSpec()
{
    const std::string path = tmpPath("ckpt_pinned.mctrace");
    BuiltRun source = buildRun(smallSpec("morph"));
    writeTrace(recordTrace(*source.workload, 2, 500), path);
    RunSpec spec = smallSpec("morph");
    spec.workload = "trace:" + path;
    return spec;
}

/** Two warmup epochs and one recorded epoch, then a checkpoint. */
std::vector<std::uint8_t>
checkpointAfterThreeEpochs(LiveRun &run, const RunSpec &spec,
                           const std::string &path)
{
    for (int i = 0; i < 3; ++i)
        run.simulation->stepEpoch();
    writeCheckpoint(path, spec, run.state());
    return readFileBytes(path);
}

/**
 * One fixture line per section of a checkpoint file: label, tag,
 * body length and the body's fnv1a64.
 */
std::string
sectionDigests(const std::string &label,
               const std::vector<std::uint8_t> &bytes)
{
    std::ostringstream out;
    CkptReader r(label, bytes.data(), bytes.size() - 8);
    r.skip(4 + 4 + 8 + 8 + 8); // magic, version, hash, seed, epochs
    while (r.remaining() > 0) {
        char tag[4];
        r.raw(tag, 4);
        const std::uint64_t len = r.u64();
        const std::uint8_t *body = bytes.data() + r.offset();
        r.skip(static_cast<std::size_t>(len));
        out << label << ' ' << std::string(tag, 4) << ' ' << len
            << ' ' << hex64(fnv1a64(body, len)) << '\n';
    }
    return out.str();
}

std::string
workloadDigest(const std::string &label, const Workload &workload)
{
    CkptWriter w;
    workload.saveState(w);
    std::ostringstream out;
    out << label << " WKLD " << w.buffer().size() << ' '
        << hex64(fnv1a64(w.buffer().data(), w.buffer().size()))
        << '\n';
    return out.str();
}

/**
 * The checkpoint format is pinned byte for byte: every section of
 * every cell must keep its length and digest. MC_UPDATE_GOLDEN=1
 * rewrites the fixture.
 */
TEST(Ckpt, BytesMatchFixture)
{
    std::string text;
    const std::string path = tmpPath("pinned.ckpt");
    for (const CkptCell &cell : pinnedCells()) {
        LiveRun run(cell.spec);
        text += sectionDigests(
            cell.label, checkpointAfterThreeEpochs(run, cell.spec, path));
    }
    {
        const RunSpec spec = traceSpec();
        LiveRun run(spec);
        for (int i = 0; i < 3; ++i)
            run.simulation->stepEpoch();
        text += workloadDigest("morph/trace", *run.built.workload);
    }
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    const std::string fixture =
        std::string(MC_SOURCE_DIR) + "/tests/golden/ckpt_digests.txt";
    if (std::getenv("MC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(fixture, std::ios::binary);
        ASSERT_TRUE(out.good()) << fixture;
        out << text;
        return;
    }
    std::ifstream in(fixture, std::ios::binary);
    std::ostringstream golden;
    golden << in.rdbuf();
    ASSERT_FALSE(golden.str().empty())
        << "missing fixture " << fixture
        << " (regenerate with MC_UPDATE_GOLDEN=1)";
    EXPECT_EQ(text, golden.str())
        << "checkpoint bytes diverged from " << fixture;
}

/**
 * A restored run saves exactly the bytes it was restored from: every
 * field a save writes, a load reads back into the same place.
 */
TEST(Ckpt, RestoreThenSaveIsByteIdentical)
{
    std::vector<CkptCell> cells = pinnedCells();
    cells.push_back({"morph/trace", traceSpec()});
    const std::string first = tmpPath("restore_first.ckpt");
    const std::string second = tmpPath("restore_second.ckpt");
    for (const CkptCell &cell : cells) {
        SCOPED_TRACE(cell.label);
        std::vector<std::uint8_t> saved;
        {
            LiveRun run(cell.spec);
            saved = checkpointAfterThreeEpochs(run, cell.spec, first);
        }
        LiveRun restored(cell.spec);
        readCheckpoint(first, cell.spec, restored.state());
        writeCheckpoint(second, cell.spec, restored.state());
        EXPECT_TRUE(readFileBytes(second) == saved)
            << "re-saved checkpoint differs from the one restored";
    }
    for (const std::string &path : {first, second}) {
        std::remove(path.c_str());
        std::remove((path + ".prev").c_str());
    }
}

} // namespace
} // namespace morphcache
