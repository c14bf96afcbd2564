/**
 * @file
 * Tests for the workload model's dynamic structure: sweeps,
 * streams, phases, and per-mix/per-app smoke coverage of the full
 * simulation stack (parameterized over every Table 5 mix and every
 * PARSEC application).
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

GeneratorParams
smallGen()
{
    GeneratorParams params;
    params.l2SliceLines = 512;
    params.l3SliceLines = 2048;
    return params;
}

TEST(WorkloadDynamics, MidSetIsSweptCyclically)
{
    // Disable everything but mid draws: lines must appear in a
    // repeating cyclic order.
    GeneratorParams params = smallGen();
    params.recentFraction = 0.0;
    params.hotShare = 0.0;
    params.streamFractionByClass[2] = 0.0;
    CoreRefGenerator gen(profileByName("bzip2"), 0, params, 7);
    gen.beginEpoch(1);

    const std::uint64_t period = gen.midLines();
    ASSERT_GT(period, 64u);
    std::vector<Addr> first_pass;
    for (std::uint64_t i = 0; i < period; ++i)
        first_pass.push_back(gen.next().addr);
    for (std::uint64_t i = 0; i < period; ++i)
        EXPECT_EQ(gen.next().addr, first_pass[i]) << "pos " << i;
}

TEST(WorkloadDynamics, StreamNeverRepeats)
{
    GeneratorParams params = smallGen();
    params.recentFraction = 0.0;
    params.hotShare = 0.0;
    // Class 0 = streamers; force all working draws to stream.
    params.streamFractionByClass[0] = 1.0;
    CoreRefGenerator gen(profileByName("libquantum"), 0, params, 7);
    gen.beginEpoch(1);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 5000; ++i)
        EXPECT_TRUE(seen.insert(gen.next().addr).second);
}

TEST(WorkloadDynamics, PhasesArePersistent)
{
    // With a persistent low phase, small epochs cluster in runs
    // rather than alternating randomly.
    GeneratorParams params = smallGen();
    params.lowPhaseEnterProb = 0.10;
    params.lowPhaseStayProb = 0.75;
    CoreRefGenerator gen(profileByName("calculix"), 0, params, 7);

    std::vector<bool> low;
    for (int e = 0; e < 400; ++e) {
        gen.beginEpoch(static_cast<EpochId>(e));
        low.push_back(static_cast<double>(gen.hotLines()) <
                      0.6 * 0.62 * 1.25 * 512); // below ~phase line
    }
    int low_count = 0, runs = 0;
    for (std::size_t i = 0; i < low.size(); ++i) {
        low_count += low[i];
        if (low[i] && (i == 0 || !low[i - 1]))
            ++runs;
    }
    ASSERT_GT(low_count, 20);
    // Persistent phases: far fewer entries than low epochs (runs of
    // length ~1/(1-stay) = 4).
    EXPECT_LT(runs * 2, low_count);
}

TEST(WorkloadDynamics, SharedWritesAreRare)
{
    GeneratorParams params = smallGen();
    MultithreadedWorkload app(profileByName("dedup"), 4, params, 7);
    app.beginEpoch(1);
    // Count writes among accesses; the blended rate must sit well
    // below the private-only rate because half the draws are
    // shared and read-mostly.
    int writes = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i)
        writes += app.next(0).type == AccessType::Write;
    const double rate = static_cast<double>(writes) / n;
    EXPECT_LT(rate, 0.20);
    EXPECT_GT(rate, 0.05);
}

// ---- Full-stack smoke coverage -----------------------------------

class EveryMix : public ::testing::TestWithParam<int>
{
};

TEST_P(EveryMix, RunsUnderMorphCache)
{
    char name[16];
    std::snprintf(name, sizeof(name), "MIX %02d", GetParam());
    HierarchyParams hier = HierarchyParams::defaultParams(16);
    hier.l1Geom = CacheGeometry{2048, 2, 64};
    hier.l2.sliceGeom = CacheGeometry{8192, 4, 64};
    hier.l3.sliceGeom = CacheGeometry{32768, 8, 64};
    const GeneratorParams gen = generatorFor(hier);

    MixWorkload workload(mixByName(name), gen, 7);
    MorphCacheSystem system(hier, MorphConfig{});
    SimParams sim;
    sim.refsPerEpochPerCore = 1200;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    Simulation simulation(system, workload, sim);
    const RunResult result = simulation.run();
    EXPECT_GT(result.avgThroughput, 0.0);
    for (double ipc : result.avgIpc)
        EXPECT_GT(ipc, 0.0);
    // Whatever the controller did, the topology must be sound.
    EXPECT_TRUE(system.hierarchy().topology().respectsInclusion());
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, EveryMix,
                         ::testing::Range(1, 13));

class EveryParsecApp
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EveryParsecApp, RunsUnderMorphCache)
{
    HierarchyParams hier = HierarchyParams::defaultParams(16);
    hier.l1Geom = CacheGeometry{2048, 2, 64};
    hier.l2.sliceGeom = CacheGeometry{8192, 4, 64};
    hier.l3.sliceGeom = CacheGeometry{32768, 8, 64};
    hier.coherence = true;
    const GeneratorParams gen = generatorFor(hier);

    MultithreadedWorkload workload(profileByName(GetParam()), 16,
                                   gen, 7);
    MorphCacheSystem system(hier, MorphConfig{});
    SimParams sim;
    sim.refsPerEpochPerCore = 1200;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    Simulation simulation(system, workload, sim);
    const RunResult result = simulation.run();
    EXPECT_GT(result.performance, 0.0);
    EXPECT_TRUE(system.hierarchy().topology().respectsInclusion());
}

INSTANTIATE_TEST_SUITE_P(
    AllTwelve, EveryParsecApp,
    ::testing::Values("blackscholes", "bodytrack", "canneal",
                      "dedup", "facesim", "ferret", "fluidanimate",
                      "freqmine", "streamcluster", "swaptions",
                      "vips", "x264"));

} // namespace
} // namespace morphcache
