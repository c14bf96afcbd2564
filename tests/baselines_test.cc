/**
 * @file
 * Unit/integration tests for the baselines: PIPP (utility monitors,
 * lookahead allocation, insertion/promotion), DSR (set dueling,
 * spilling), and the ideal offline scheme.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/dsr.hh"
#include "baselines/ideal_offline.hh"
#include "baselines/pipp.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

HierarchyParams
testHier(std::uint32_t cores = 4)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{2048, 2, 64};
    params.l2.sliceGeom = CacheGeometry{16384, 4, 64};  // 256 lines
    params.l3.sliceGeom = CacheGeometry{65536, 8, 64};  // 1024 lines
    return params;
}

TEST(UtilityMonitor, CountsStackHits)
{
    UtilityMonitor monitor(64, 16, /*sample_shift=*/0);
    // Two accesses to the same line in a sampled set: second is a
    // hit at MRU (position 0).
    monitor.access(0);
    monitor.access(0);
    EXPECT_EQ(monitor.hits()[0], 1u);
    EXPECT_EQ(monitor.utility(1), 1u);
}

TEST(UtilityMonitor, DeepReuseLandsDeeper)
{
    UtilityMonitor monitor(64, 16, 0);
    // Touch 4 distinct lines of one set, then re-touch the first:
    // hit at stack position 3.
    for (Addr a = 0; a < 4; ++a)
        monitor.access(a * 64);
    monitor.access(0);
    EXPECT_EQ(monitor.hits()[3], 1u);
    EXPECT_EQ(monitor.utility(3), 0u);
    EXPECT_EQ(monitor.utility(4), 1u);
}

TEST(UtilityMonitor, DecayHalves)
{
    UtilityMonitor monitor(64, 16, 0);
    monitor.access(0);
    monitor.access(0);
    monitor.access(0);
    EXPECT_EQ(monitor.hits()[0], 2u);
    monitor.decay();
    EXPECT_EQ(monitor.hits()[0], 1u);
}

TEST(Lookahead, GivesWaysToTheUtiliyHeavyCore)
{
    // Core 0 shows utility up to 12 ways; core 1 none.
    std::vector<UtilityMonitor> monitors;
    monitors.emplace_back(64, 16, 0);
    monitors.emplace_back(64, 16, 0);
    // Build a reuse pattern for core 0: cycle over 12 lines of one
    // set repeatedly -> hits at positions 0..11.
    for (int rep = 0; rep < 10; ++rep) {
        for (Addr a = 0; a < 12; ++a)
            monitors[0].access(a * 64);
    }
    std::vector<std::uint32_t> alloc;
    std::vector<std::uint64_t> prefix;
    lookaheadAllocate(monitors, 16, alloc, prefix);
    EXPECT_EQ(alloc[0] + alloc[1], 16u);
    EXPECT_GE(alloc[0], 12u);
    EXPECT_GE(alloc[1], 1u); // everyone keeps at least one way
}

TEST(Lookahead, EvenSplitWithoutUtility)
{
    std::vector<UtilityMonitor> monitors;
    monitors.emplace_back(64, 8, 0);
    monitors.emplace_back(64, 8, 0);
    std::vector<std::uint32_t> alloc;
    std::vector<std::uint64_t> prefix;
    lookaheadAllocate(monitors, 8, alloc, prefix);
    EXPECT_EQ(alloc[0] + alloc[1], 8u);
    EXPECT_GE(alloc[0], 1u);
    EXPECT_GE(alloc[1], 1u);
}

TEST(PippSystem, RunsAndAllocates)
{
    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    MixWorkload workload(mixByName("MIX 08"), gen, 7);

    const auto sys = makePippSystem(HierarchyParams::defaultParams(16));
    SimParams sim;
    sim.refsPerEpochPerCore = 1500;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    Simulation simulation(*sys, workload, sim);
    const RunResult result = simulation.run();
    EXPECT_GT(result.avgThroughput, 0.0);

    // Allocations must be a valid partition of the 128 L2 ways.
    const auto *policy = dynamic_cast<const PippPolicy *>(sys->l2Policy());
    ASSERT_NE(policy, nullptr);
    std::uint32_t total = 0;
    for (CoreId c = 0; c < 16; ++c) {
        EXPECT_GE(policy->allocation(c), 1u);
        total += policy->allocation(c);
    }
    EXPECT_EQ(total, 128u);
}

TEST(DsrPolicy, LeaderRolesAreFixed)
{
    DsrPolicy policy(4, 512);
    // Slice 0: set 0 is its always-spill leader, set 1 never-spill.
    EXPECT_TRUE(policy.isSpiller(0, 0));
    EXPECT_FALSE(policy.isSpiller(0, 1));
    // Slice 2's leaders are at phase 4 and 5.
    EXPECT_TRUE(policy.isSpiller(2, 4));
    EXPECT_FALSE(policy.isSpiller(2, 5));
}

TEST(DsrPolicy, PselSteersFollowerSets)
{
    DsrPolicy policy(4, 512);
    CacheLevelModel level([] {
        LevelParams p;
        p.numSlices = 4;
        p.sliceGeom = CacheGeometry{16384, 4, 64};
        return p;
    }());
    // Misses in the never-spill leader sets push PSEL negative ->
    // spilling preferred in follower sets.
    for (int i = 0; i < 10; ++i)
        policy.miss(level, 0, /*line=*/1 + 512 * i); // set 1
    EXPECT_LT(policy.psel(0), 0);
    EXPECT_TRUE(policy.isSpiller(0, /*follower set*/ 100));
    // Misses in the always-spill leaders push it back.
    for (int i = 0; i < 20; ++i)
        policy.miss(level, 0, /*line=*/0 + 512 * i); // set 0
    EXPECT_GT(policy.psel(0), 0);
    EXPECT_FALSE(policy.isSpiller(0, 100));
}

TEST(DsrSystem, SpillsFromHotToCold)
{
    // Core 0 streams over a large footprint; cores 1-3 idle. DSR
    // should learn to spill and use the idle slices.
    HierarchyParams hier = testHier(4);
    const auto sys = makeDsrSystem(hier);

    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    SoloWorkload hot(profileByName("cactusADM"), gen, 7);

    // Drive core 0 directly (other cores silent).
    for (int e = 0; e < 6; ++e) {
        hot.beginEpoch(static_cast<EpochId>(e));
        for (int i = 0; i < 4000; ++i)
            sys->access(hot.next(0), 0);
    }
    const auto *policy = dynamic_cast<const DsrPolicy *>(sys->l2Policy());
    ASSERT_NE(policy, nullptr);
    EXPECT_GT(policy->numSpills(), 0u);
}

TEST(IdealOffline, PicksBestTopologyPerEpoch)
{
    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    MixWorkload workload(mixByName("MIX 09"), gen, 7);

    const std::vector<Topology> candidates = {
        Topology::symmetric(16, 16, 1, 1),
        Topology::symmetric(16, 1, 1, 16),
        Topology::symmetric(16, 4, 4, 1),
    };
    SimParams sim;
    sim.refsPerEpochPerCore = 1200;
    sim.epochs = 3;
    sim.warmupEpochs = 1;

    const IdealOfflineResult ideal = runIdealOffline(
        HierarchyParams::defaultParams(16), candidates, workload,
        sim);
    ASSERT_EQ(ideal.chosenTopology.size(), 3u);
    EXPECT_GT(ideal.run.avgThroughput, 0.0);

    // The oracle can never lose to always picking candidate 0 with
    // the same seed (it evaluates that choice too).
    MixWorkload workload2(mixByName("MIX 09"), gen, 7);
    StaticTopologySystem fixed(HierarchyParams::defaultParams(16),
                               candidates[0]);
    Simulation fixed_sim(fixed, workload2, sim);
    const double fixed_tput = fixed_sim.run().avgThroughput;
    EXPECT_GE(ideal.run.avgThroughput, 0.98 * fixed_tput);
}

TEST(IdealOffline, OneCandidateMatchesAFixedRun)
{
    // With one candidate the oracle commits the same topology every
    // epoch, so it must measure exactly what a fixed run measures.
    // defaultParams() is LRU at L2 and L3, where reconfiguring to
    // the topology already in place leaves the state alone.
    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    const HierarchyParams params = HierarchyParams::defaultParams(16);
    const Topology topology = Topology::symmetric(16, 4, 4, 1);
    for (const std::uint32_t warmup : {0u, 2u}) {
        SCOPED_TRACE(::testing::Message() << "warmup " << warmup);
        SimParams sim;
        sim.refsPerEpochPerCore = 1200;
        sim.epochs = 3;
        sim.warmupEpochs = warmup;

        MixWorkload oracle_workload(mixByName("MIX 09"), gen, 7);
        const IdealOfflineResult ideal =
            runIdealOffline(params, {topology}, oracle_workload, sim);

        MixWorkload fixed_workload(mixByName("MIX 09"), gen, 7);
        StaticTopologySystem fixed(params, topology);
        const RunResult expected =
            Simulation(fixed, fixed_workload, sim).run();

        EXPECT_EQ(ideal.chosenTopology,
                  std::vector<std::string>(sim.epochs, topology.name()));
        ASSERT_EQ(ideal.run.epochs.size(), expected.epochs.size());
        for (std::size_t e = 0; e < expected.epochs.size(); ++e) {
            EXPECT_EQ(ideal.run.epochs[e].ipc, expected.epochs[e].ipc)
                << "epoch " << e;
            EXPECT_EQ(ideal.run.epochs[e].throughput,
                      expected.epochs[e].throughput)
                << "epoch " << e;
            EXPECT_EQ(ideal.run.epochs[e].misses,
                      expected.epochs[e].misses)
                << "epoch " << e;
        }
        EXPECT_EQ(ideal.run.avgIpc, expected.avgIpc);
        EXPECT_EQ(ideal.run.avgThroughput, expected.avgThroughput);
        EXPECT_EQ(ideal.run.performance, expected.performance);
    }
}

TEST(IdealOffline, RecordsEachEpochsMemoryMisses)
{
    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    const std::vector<Topology> candidates = {
        Topology::symmetric(16, 16, 1, 1),
        Topology::symmetric(16, 1, 1, 16),
        Topology::symmetric(16, 4, 4, 1),
    };
    SimParams sim;
    sim.refsPerEpochPerCore = 1200;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    const HierarchyParams params = HierarchyParams::defaultParams(16);
    MixWorkload workload(mixByName("MIX 09"), gen, 7);
    const IdealOfflineResult ideal =
        runIdealOffline(params, candidates, workload, sim);
    ASSERT_EQ(ideal.run.epochs.size(), 3u);

    // Replay the committed path on a fresh hierarchy: warmup on the
    // first candidate, then each recorded epoch on the topology the
    // oracle chose. Its probes ran on copies, so the replay sees the
    // same streams, and each core's memory-access delta per epoch
    // is the miss count the oracle must have recorded.
    Hierarchy hierarchy(staticLatencyModel(params, RemoteCost::Premium));
    hierarchy.reconfigure(candidates.front());
    MixWorkload replay(mixByName("MIX 09"), gen, 7);
    std::vector<double> cycles(16, 0.0), instrs(16, 0.0);
    EpochId epoch = 0;
    for (; epoch < sim.warmupEpochs; ++epoch) {
        replay.beginEpoch(epoch);
        runEpochAccesses(hierarchy, replay, sim.refsPerEpochPerCore,
                         cycles, instrs);
    }
    std::uint64_t recorded = 0;
    for (std::uint32_t e = 0; e < sim.epochs; ++e, ++epoch) {
        const auto chosen = std::find_if(
            candidates.begin(), candidates.end(),
            [&](const Topology &t) {
                return t.name() == ideal.chosenTopology[e];
            });
        ASSERT_NE(chosen, candidates.end());
        hierarchy.reconfigure(*chosen);
        std::vector<std::uint64_t> before(16);
        for (CoreId c = 0; c < 16; ++c)
            before[c] = hierarchy.coreStats(c).memAccesses;
        replay.beginEpoch(epoch);
        runEpochAccesses(hierarchy, replay, sim.refsPerEpochPerCore,
                         cycles, instrs);
        for (CoreId c = 0; c < 16; ++c) {
            EXPECT_EQ(ideal.run.epochs[e].misses[c],
                      hierarchy.coreStats(c).memAccesses - before[c])
                << "epoch " << e << " core " << c;
            recorded += ideal.run.epochs[e].misses[c];
        }
    }
    EXPECT_GT(recorded, 0u);
}

} // namespace
} // namespace morphcache
