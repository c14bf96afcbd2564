/**
 * @file
 * Perf-observability subsystem tests: the allocation meter (tally
 * math, the metering-changes-nothing parity contract and the
 * allocation-free reference loop), Profiler snapshots, manifest
 * timing folds, and the BENCH record writer (mc_benchrec) and gate
 * (mc_benchdiff) invoked end-to-end through python3.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <vector>

#include <gtest/gtest.h>

#include "hierarchy/hierarchy.hh"
#include "perf/allocmeter.hh"
#include "perf/clock.hh"
#include "runner/manifest.hh"
#include "runner/run_factory.hh"
#include "sim/config.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"

using namespace morphcache;

// ---------------------------------------------------------------
// Allocation meter
// ---------------------------------------------------------------

TEST(AllocMeter, TallyMathAndGate)
{
    const bool was = AllocMeter::enabled();
    AllocMeter::setEnabled(false);
    const AllocSnapshot off0 = AllocMeter::snapshot();
    AllocMeter::recordAlloc(64); // gate closed: must not count
    AllocMeter::recordFree();
    const AllocSnapshot off1 = AllocMeter::snapshot();
    EXPECT_EQ(allocDelta(off0, off1).calls, 0u);
    EXPECT_EQ(allocDelta(off0, off1).bytes, 0u);
    EXPECT_EQ(allocDelta(off0, off1).frees, 0u);

    AllocMeter::setEnabled(true);
    const AllocSnapshot a = AllocMeter::snapshot();
    AllocMeter::recordAlloc(64);
    AllocMeter::recordAlloc(32);
    AllocMeter::recordFree();
    const AllocSnapshot b = AllocMeter::snapshot();
    AllocMeter::setEnabled(was);

    const AllocSnapshot d = allocDelta(a, b);
    EXPECT_EQ(d.bytes, 96u);
    EXPECT_EQ(d.calls, 2u);
    EXPECT_EQ(d.frees, 1u);
}

TEST(AllocMeter, OperatorNewIsCounted)
{
    const bool was = AllocMeter::enabled();
    AllocMeter::setEnabled(true);
    const AllocSnapshot a = AllocMeter::snapshot();
    {
        // Volatile pointer defeats heap elision of the new/delete
        // pair; 1 KiB is far above any small-string optimization.
        std::string *volatile p = new std::string(1024, 'x');
        delete p;
    }
    const AllocSnapshot b = AllocMeter::snapshot();
    AllocMeter::setEnabled(was);

    const AllocSnapshot d = allocDelta(a, b);
    EXPECT_GE(d.calls, 2u); // the string object + its buffer
    EXPECT_GE(d.bytes, 1024u);
    EXPECT_GE(d.frees, 2u);
}

namespace {

/** What the parity witness compares. */
struct ParityCell
{
    std::string statsJson;
    double throughput = 0.0;
    std::string finalTopology;
};

/** One small 4-core morph cell, stats JSON on (the parity witness). */
ParityCell
runParityCell()
{
    RunSpec spec;
    spec.workload = "mix:3";
    spec.cores = 4;
    spec.epochs = 3;
    spec.refs = 1500;
    spec.seed = 42;
    BuiltRun built = buildRun(spec);
    built.sim.warmupEpochs = 1;

    StatsRegistry registry;
    built.system->registerStats(registry);
    Simulation simulation(*built.system, *built.workload, built.sim);
    simulation.setRegistry(&registry);

    ParityCell cell;
    cell.throughput = simulation.run().avgThroughput;
    cell.statsJson = registry.jsonString();
    const auto &morph =
        dynamic_cast<const MorphCacheSystem &>(*built.system);
    cell.finalTopology = morph.hierarchy().topology().name();
    return cell;
}

} // namespace

TEST(AllocMeter, MeteringChangesNoSimulatedByte)
{
    // The whole contract: enabling telemetry (allocation meter AND
    // profiler) must not change one byte of simulated stats.
    const bool meter_was = AllocMeter::enabled();
    const bool prof_was = Profiler::global().enabled();

    AllocMeter::setEnabled(false);
    Profiler::global().setEnabled(false);
    const ParityCell off = runParityCell();

    AllocMeter::setEnabled(true);
    Profiler::global().setEnabled(true);
    const ParityCell on = runParityCell();

    AllocMeter::setEnabled(meter_was);
    Profiler::global().setEnabled(prof_was);

    ASSERT_FALSE(off.statsJson.empty());
    EXPECT_EQ(off.statsJson, on.statsJson);
    EXPECT_EQ(off.throughput, on.throughput);
    EXPECT_EQ(off.finalTopology, on.finalTopology);
}

TEST(AllocMeter, DroppingL2LinesOnReconfigurationDoesNotAllocate)
{
    // Splitting a shared L3 into private slices leaves L2 lines whose
    // L3 copy sits in another slice; inclusion drops them one by one.
    // Each drop must be allocation-free, so the reconfiguration
    // allocates exactly as much as the same one of an empty
    // hierarchy.
    const HierarchyParams params = fastScaleHierarchy(4);
    const Topology shared = Topology::symmetric(4, 1, 4, 1);
    const Topology split = Topology::symmetric(4, 1, 1, 4);
    Hierarchy empty(params);
    Hierarchy full(params);
    empty.reconfigure(shared);
    full.reconfigure(shared);
    // 4096 lines overflow core 0's 2048-line L3 slice into the
    // others, while its L2 keeps the most recent 512.
    for (Addr line = 0; line < 4096; ++line)
        full.access(MemAccess{0, line * 64, AccessType::Read}, line);

    const auto metered = [](Hierarchy &h, const Topology &topology) {
        const bool was = AllocMeter::enabled();
        AllocMeter::setEnabled(true);
        const AllocSnapshot a = AllocMeter::snapshot();
        h.reconfigure(topology);
        const AllocSnapshot b = AllocMeter::snapshot();
        AllocMeter::setEnabled(was);
        return allocDelta(a, b);
    };
    const std::uint64_t dropped = full.l2().stats().inclusionInvalidations;
    const AllocSnapshot e = metered(empty, split);
    const AllocSnapshot f = metered(full, split);
    EXPECT_GT(full.l2().stats().inclusionInvalidations, dropped + 100);
    EXPECT_EQ(empty.l2().stats().inclusionInvalidations, 0u);
    EXPECT_EQ(f.calls, e.calls);
    EXPECT_EQ(f.bytes, e.bytes);
    EXPECT_EQ(f.frees, e.frees);
}

TEST(AllocMeter, AcfvQueriesDoNotAllocate)
{
    // The controller reads utilization and overlap for every
    // candidate group at each epoch boundary, and the stats registry
    // samples every slice's aggregate popcount: all three read the
    // bank in place.
    const HierarchyParams params = fastScaleHierarchy(4);
    Hierarchy h(params);
    for (Addr line = 0; line < 4096; ++line) {
        h.access(MemAccess{static_cast<CoreId>(line % 4), line * 64,
                           AccessType::Read},
                 line);
    }
    const CacheLevelModel &level = h.l2();
    const std::vector<SliceId> a = {0, 1};
    const std::vector<SliceId> b = {2, 3};
    ASSERT_GT(level.acfvs().sliceAcfPopcount(0), 0u);

    const bool was = AllocMeter::enabled();
    AllocMeter::setEnabled(true);
    const AllocSnapshot before = AllocMeter::snapshot();
    double sink = level.acfvs().overlap(a, b) + level.acfvs().utilization(a);
    for (SliceId s = 0; s < 4; ++s)
        sink += level.acfvs().sliceAcfPopcount(s);
    const AllocSnapshot after = AllocMeter::snapshot();
    AllocMeter::setEnabled(was);

    EXPECT_GT(sink, 0.0);
    EXPECT_EQ(allocDelta(before, after).calls, 0u);
    EXPECT_EQ(allocDelta(before, after).frees, 0u);
}

TEST(AllocMeter, RefProcessingIsAllocationFreeForAllSchemes)
{
    // The steady-state gate: the per-access inner loop is
    // contractually allocation-free for every scheme — all per-epoch
    // storage is pre-sized at construction. Any alloc (or free)
    // attributed to the RefProcessing phase is a regression, from
    // the very first epoch onward. Besides small 4-core cells, it
    // runs the shapes of simbench's workloads at 16 cores: the
    // write-invalidate and cache-to-cache paths (parsec:canneal),
    // 16-slice groups at paper scale, and the baselines on mix:11.
    struct Cell
    {
        const char *scheme;
        const char *workload;
        std::uint32_t cores;
        bool paperScale;
    };
    const Cell cells[] = {
        {"morph", "mix:3", 4, false},
        {"static:2:2:1", "mix:3", 4, false},
        {"ucp", "mix:3", 4, false},
        {"pipp", "mix:3", 4, false},
        {"dsr", "mix:3", 4, false},
        {"morph", "parsec:canneal", 16, false},
        {"static:16:1:1", "mix:11", 16, true},
        {"ucp", "mix:11", 16, false},
        {"pipp", "mix:11", 16, false},
        {"dsr", "mix:11", 16, false},
    };
    const bool meter_was = AllocMeter::enabled();
    const bool prof_was = Profiler::global().enabled();

    for (const Cell &cell : cells) {
        RunSpec spec;
        spec.scheme = cell.scheme;
        spec.workload = cell.workload;
        spec.cores = cell.cores;
        spec.paperScale = cell.paperScale;
        spec.epochs = 3;
        spec.refs = 1500;
        spec.seed = 42;
        BuiltRun built = buildRun(spec);
        Simulation sim(*built.system, *built.workload, built.sim);

        Profiler::global().setEnabled(true);
        AllocMeter::setEnabled(true);
        const ProfSnapshot p0 = Profiler::global().snapshot();
        while (!sim.done())
            sim.stepEpoch();
        const ProfSnapshot p1 = Profiler::global().snapshot();
        AllocMeter::setEnabled(meter_was);
        Profiler::global().setEnabled(prof_was);

        const std::string what = describe(spec);
        const ProfSnapshot d = profDelta(p0, p1);
        EXPECT_GT(d[ProfPhase::RefProcessing].calls, 0u) << what;
        EXPECT_EQ(d[ProfPhase::RefProcessing].allocCalls, 0u) << what;
        EXPECT_EQ(d[ProfPhase::RefProcessing].allocFrees, 0u) << what;
    }
}

// ---------------------------------------------------------------
// Profiler snapshot
// ---------------------------------------------------------------

TEST(ProfilerSnapshot, DeltaIsolatesAnInterval)
{
    Profiler &prof = Profiler::global();
    const ProfSnapshot before = prof.snapshot();
    prof.add(ProfPhase::EpochDecision, 1000);
    prof.add(ProfPhase::EpochDecision, 500);
    prof.add(ProfPhase::ReconfigApply, 250);
    const ProfSnapshot after = prof.snapshot();

    const ProfSnapshot d = profDelta(before, after);
    EXPECT_EQ(d[ProfPhase::EpochDecision].ns, 1500u);
    EXPECT_EQ(d[ProfPhase::EpochDecision].calls, 2u);
    EXPECT_EQ(d[ProfPhase::ReconfigApply].ns, 250u);
    EXPECT_EQ(d[ProfPhase::ReconfigApply].calls, 1u);
    EXPECT_EQ(d[ProfPhase::RefProcessing].ns, 0u);
}

TEST(ProfilerSnapshot, ReportRendersFromSnapshotValues)
{
    // report() is documented as a rendering of snapshot(); a phase
    // fed here must appear in the text with its call count.
    Profiler &prof = Profiler::global();
    prof.add(ProfPhase::ReconfigApply, 12345);
    const std::string text = prof.report();
    EXPECT_NE(text.find("reconfigApply"), std::string::npos);
}

// ---------------------------------------------------------------
// Manifest timing fold (mc_campaign status telemetry)
// ---------------------------------------------------------------

namespace {

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return path;
}

} // namespace

TEST(ManifestTimingFold, RatesAndWorkerAttribution)
{
    const std::string path = writeTempFile(
        "timing.jsonl",
        "{\"type\":\"header\",\"cells\":3,\"hash\":\"0\","
        "\"t\":1000.0}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"running\","
        "\"attempts\":1,\"worker\":\"w1\",\"t\":1010.0}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1,\"worker\":\"w1\",\"t\":1030.0}\n"
        "{\"type\":\"cell\",\"cell\":1,\"status\":\"done\","
        "\"attempts\":1,\"worker\":\"w2\",\"t\":1060.0}\n"
        "{\"type\":\"cell\",\"cell\":2,\"status\":\"torn-no-eol\"");

    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.startT, 1000.0);
    EXPECT_EQ(timing.doneEvents, 2u);
    EXPECT_EQ(timing.firstDoneT, 1030.0);
    EXPECT_EQ(timing.lastDoneT, 1060.0);
    // 2 done over the 60 s window since the header stamp.
    EXPECT_DOUBLE_EQ(timing.cellsPerMinute(), 2.0);

    ASSERT_EQ(timing.workers.size(), 2u);
    EXPECT_EQ(timing.workers[0].first, "w1");
    EXPECT_EQ(timing.workers[0].second.done, 1u);
    EXPECT_EQ(timing.workers[0].second.firstT, 1010.0);
    EXPECT_EQ(timing.workers[0].second.lastT, 1030.0);
    EXPECT_EQ(timing.workers[1].first, "w2");
    EXPECT_EQ(timing.workers[1].second.done, 1u);
}

TEST(ManifestTimingFold, ToleratesUnstampedAndMissing)
{
    // Manifests predating timestamps: no "t" fields anywhere.
    const std::string path = writeTempFile(
        "timing-old.jsonl",
        "{\"type\":\"header\",\"cells\":1,\"hash\":\"0\"}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1}\n");
    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.doneEvents, 0u);
    EXPECT_EQ(timing.cellsPerMinute(), 0.0);
    EXPECT_TRUE(timing.workers.empty());

    const ManifestTiming absent =
        foldManifestTiming(path + ".does-not-exist");
    EXPECT_EQ(absent.doneEvents, 0u);
    EXPECT_EQ(absent.cellsPerMinute(), 0.0);
}

TEST(ManifestTimingFold, FallsBackToDoneWindowWithoutHeaderStamp)
{
    const std::string path = writeTempFile(
        "timing-nohdr.jsonl",
        "{\"type\":\"header\",\"cells\":2,\"hash\":\"0\"}\n"
        "{\"type\":\"cell\",\"cell\":0,\"status\":\"done\","
        "\"attempts\":1,\"t\":100.0}\n"
        "{\"type\":\"cell\",\"cell\":1,\"status\":\"done\","
        "\"attempts\":1,\"t\":130.0}\n");
    const ManifestTiming timing = foldManifestTiming(path);
    EXPECT_EQ(timing.startT, 0.0);
    // 2 done events over their own 30 s first-to-last window.
    EXPECT_DOUBLE_EQ(timing.cellsPerMinute(), 4.0);
}

// ---------------------------------------------------------------
// Sanctioned clock shim
// ---------------------------------------------------------------

TEST(PerfClock, MonotonicAndPlausible)
{
    const std::uint64_t a = perfNowNs();
    const std::uint64_t b = perfNowNs();
    EXPECT_GE(b, a);
    EXPECT_GT(perfNowSec(), 0.0);
    // Civil time: later than 2020-01-01 on any sane host.
    EXPECT_GT(unixNowSec(), 1577836800.0);
}

// ---------------------------------------------------------------
// BENCH records: the writer and the gate (end-to-end through python3)
// ---------------------------------------------------------------

namespace {

bool
havePython()
{
    return std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
}

/** Exit status of python3 running tools/`tool` with `args`. */
int
runTool(const char *tool, const std::string &args)
{
    const std::string cmd = std::string("python3 " MC_SOURCE_DIR
                                        "/tools/") +
                            tool + " " + args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return status < 0 ? status : WEXITSTATUS(status);
}

/**
 * Canned stdout of one untraced simbench run of one cell: the header,
 * the cell's digest and counters lines, and the result line.
 */
std::string
simbenchRun(const char *workload, int seed, double refs_per_s,
            const char *seconds = "20", int failed = 0,
            const char *accesses = "960000")
{
    const std::string cell = "mix:11/morph/s" + std::to_string(seed);
    char result[512];
    std::snprintf(result, sizeof(result),
                  "{\"correct\": %s, \"attempted\": 13, \"failed\": %d, "
                  "\"metrics\": {"
                  "\"refs_per_s\": {\"value\": %.17g, \"unit\": \"refs/s\"}, "
                  "\"run_s\": {\"value\": 0.75, \"unit\": \"s\"}, "
                  "\"setup_s\": {\"value\": 0.0004, \"unit\": \"s\"}, "
                  "\"peak_rss_mb\": {\"value\": 5, \"unit\": \"MB\"}, "
                  "\"sim_ipc\": {\"value\": 3.9, \"unit\": \"IPC\"}}}\n",
                  failed ? "false" : "true", failed, refs_per_s);
    return std::string("simbench workload=") + workload +
           " seed=" + std::to_string(seed) + " seconds=" + seconds +
           " trace=0 passes=12 traced_passes=1 timer_ns=34.0+34.8\n" +
           "cell " + cell + " digest=4a46896389c27ffe refs=960000 " +
           "sim_ipc=3.9\n" + "counters " + cell + " accesses=" +
           accesses + " served.l1=900000\n" + result;
}

/**
 * A complete set of runs, five per workload and seed, in files named
 * after `prefix`. mix-morph seed 42's refs_per_s reads 5, 1, 4, 2
 * and 3 M; every other run's reads 1 M.
 */
std::vector<std::string>
writeCompleteRuns(const std::string &prefix)
{
    const double spread[] = {5e6, 1e6, 4e6, 2e6, 3e6};
    std::vector<std::string> paths;
    for (const char *workload : {"mix-morph", "mix-baselines",
                                 "paper-shared", "parsec-coherence"}) {
        for (int seed : {42, 7}) {
            const bool first =
                std::string(workload) == "mix-morph" && seed == 42;
            for (int r = 0; r < 5; ++r) {
                paths.push_back(writeTempFile(
                    prefix + "-" + workload + "-" +
                        std::to_string(seed) + "-" +
                        std::to_string(r) + ".txt",
                    simbenchRun(workload, seed,
                                first ? spread[r] : 1e6)));
            }
        }
    }
    return paths;
}

/** Exit status of mc_benchrec.py writing `out` from `runs`. */
int
runBenchRec(const std::string &out, const std::vector<std::string> &runs)
{
    std::remove(out.c_str());
    std::string args = "'" + out + "'";
    for (const std::string &run : runs)
        args += " '" + run + "'";
    return runTool("mc_benchrec.py", args);
}

/** mc_benchrec.py refuses `runs` and writes no record. */
void
expectRefused(const std::string &name,
              const std::vector<std::string> &runs)
{
    const std::string out = ::testing::TempDir() + name + ".json";
    EXPECT_EQ(runBenchRec(out, runs), 1);
    EXPECT_FALSE(std::ifstream(out).good()) << out;
}

/**
 * A one-entry record for mix-morph seed 42 with every quartile at
 * its median; `extra` is spliced in at the top level.
 */
std::string
benchRecord(double refs_per_s, double peak_rss_mb = 5.0,
            const char *digest = "4a46896389c27ffe",
            const char *workload = "mix-morph", const char *extra = "")
{
    const auto metric = [](const char *name, double v) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"%s\": {\"median\": %.17g, \"q1\": %.17g, "
                      "\"q3\": %.17g}",
                      name, v, v, v);
        return std::string(buf);
    };
    return std::string("{\"schema\": 3, \"run_seconds\": 20, ") + extra +
           "\"workloads\": [{\"workload\": \"" + workload +
           "\", \"seed\": 42, \"runs\": 5, \"metrics\": {" +
           metric("refs_per_s", refs_per_s) + ", " +
           metric("run_s", 0.75) + ", " + metric("setup_s", 0.0004) +
           ", " + metric("peak_rss_mb", peak_rss_mb) + ", " +
           metric("sim_ipc", 3.9) +
           "}, \"lines\": [\"cell mix:11/morph/s42 digest=" + digest +
           " refs=960000 sim_ipc=3.9\", "
           "\"counters mix:11/morph/s42 accesses=960000\"]}]}\n";
}

} // namespace

TEST(BenchRec, WritesMediansAndQuartiles)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    const std::string out = ::testing::TempDir() + "benchrec-valid.json";
    ASSERT_EQ(runBenchRec(out, writeCompleteRuns("benchrec-valid")), 0);
    std::ifstream in(out);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());

    // mix-morph seed 42 is the first entry, refs_per_s its first
    // metric: 1..5 M has quartiles 2 and 4 M.
    std::uint64_t u = 0;
    ASSERT_TRUE(jsonFieldU64(doc, "schema", u));
    EXPECT_EQ(u, 3u);
    ASSERT_TRUE(jsonFieldU64(doc, "runs", u));
    EXPECT_EQ(u, 5u);
    double f = 0.0;
    ASSERT_TRUE(jsonFieldF64(doc, "median", f));
    EXPECT_EQ(f, 3e6);
    ASSERT_TRUE(jsonFieldF64(doc, "q1", f));
    EXPECT_EQ(f, 2e6);
    ASSERT_TRUE(jsonFieldF64(doc, "q3", f));
    EXPECT_EQ(f, 4e6);
    EXPECT_NE(doc.find("\"counters mix:11/morph/s42 accesses=960000 "
                       "served.l1=900000\""),
              std::string::npos);
    // One entry per workload and seed.
    std::size_t entries = 0;
    for (std::size_t at = doc.find("\"workload\":");
         at != std::string::npos; at = doc.find("\"workload\":", at + 1))
        ++entries;
    EXPECT_EQ(entries, 8u);
}

TEST(BenchRec, RefusesAFailedRun)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    std::vector<std::string> runs = writeCompleteRuns("benchrec-failed");
    runs.push_back(writeTempFile("benchrec-failed-extra.txt",
                                 simbenchRun("mix-morph", 42, 1e6, "20",
                                             1)));
    expectRefused("benchrec-failed", runs);
}

TEST(BenchRec, RefusesARunOfAnotherLength)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    std::vector<std::string> runs = writeCompleteRuns("benchrec-short");
    runs.push_back(writeTempFile("benchrec-short-extra.txt",
                                 simbenchRun("mix-morph", 42, 1e6, "2")));
    expectRefused("benchrec-short", runs);
}

TEST(BenchRec, RefusesAMissingSeed)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    std::vector<std::string> runs = writeCompleteRuns("benchrec-seed");
    std::erase_if(runs, [](const std::string &path) {
        return path.find("-paper-shared-7-") != std::string::npos;
    });
    expectRefused("benchrec-seed", runs);
}

TEST(BenchRec, RefusesRunsThatDisagreeOnCounters)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    std::vector<std::string> runs = writeCompleteRuns("benchrec-nondet");
    runs.push_back(writeTempFile("benchrec-nondet-extra.txt",
                                 simbenchRun("mix-morph", 42, 1e6, "20",
                                             0, "960001")));
    expectRefused("benchrec-nondet", runs);
}

TEST(BenchDiff, GatesOnMedianRegression)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";

    const std::string base =
        writeTempFile("benchdiff-base.json", benchRecord(4.0e6));
    const auto gate = [&](const char *name, const std::string &record) {
        return runTool("mc_benchdiff.py",
                       "'" + base + "' '" + writeTempFile(name, record) +
                           "'");
    };

    EXPECT_EQ(runTool("mc_benchdiff.py", "'" + base + "' '" + base + "'"),
              0);
    // refs_per_s 30% lower is past its 0.25 bound; peak_rss_mb 5%
    // higher sits inside its 0.10 bound, 15% higher does not.
    EXPECT_EQ(gate("benchdiff-slow.json", benchRecord(2.8e6)), 1);
    EXPECT_EQ(gate("benchdiff-rss.json", benchRecord(4.0e6, 5.25)), 0);
    EXPECT_EQ(gate("benchdiff-rss-over.json", benchRecord(4.0e6, 5.75)),
              1);

    // A changed digest passes only as a declared model change.
    EXPECT_EQ(gate("benchdiff-digest.json",
                   benchRecord(4.0e6, 5.0, "4a46896389c27fff")),
              1);
    EXPECT_EQ(gate("benchdiff-declared.json",
                   benchRecord(4.0e6, 5.0, "4a46896389c27fff",
                               "mix-morph",
                               "\"model_change\": \"new stats\", ")),
              0);

    // No shared workload and seed is an error, not a vacuous pass.
    EXPECT_EQ(gate("benchdiff-disjoint.json",
                   benchRecord(4.0e6, 5.0, "4a46896389c27ffe",
                               "paper-shared")),
              2);
}
