/**
 * @file
 * Integration tests for the simulation layer: memory systems, the
 * core model, and end-to-end runs.
 */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

HierarchyParams
testHier(std::uint32_t cores = 4)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{2048, 2, 64};
    params.l2.sliceGeom = CacheGeometry{8192, 4, 64};   // 128 lines
    params.l3.sliceGeom = CacheGeometry{32768, 8, 64};  // 512 lines
    return params;
}

GeneratorParams
testGen()
{
    return generatorFor(testHier());
}

SimParams
testSim()
{
    SimParams params;
    params.refsPerEpochPerCore = 2000;
    params.epochs = 4;
    params.warmupEpochs = 1;
    return params;
}

/** A 4-core mix built from SPEC profiles. */
class FourMix : public Workload
{
  public:
    explicit FourMix(std::uint64_t seed)
    {
        const char *names[4] = {"cactusADM", "libquantum", "gobmk",
                                "hmmer"};
        for (CoreId c = 0; c < 4; ++c) {
            gens_.emplace_back(profileByName(names[c]), c, testGen(),
                               seed + c);
        }
    }

    MemAccess next(CoreId core) override { return gens_[core].next(); }
    void
    beginEpoch(EpochId epoch) override
    {
        for (auto &gen : gens_)
            gen.beginEpoch(epoch);
    }
    bool sharedAddressSpace() const override { return false; }
    std::uint32_t numCores() const override { return 4; }
    std::unique_ptr<Workload>
    clone() const override
    {
        return std::make_unique<FourMix>(*this);
    }
    std::string name() const override { return "four-mix"; }

  private:
    std::vector<CoreRefGenerator> gens_;
};

TEST(CoreModel, CyclesForAccess)
{
    // 10 instructions at width 4 + latency 10 / overlap 2.
    EXPECT_DOUBLE_EQ(cyclesForAccess(10), 2.5 + 5.0);
}

TEST(StaticSystem, ReportsTopologyName)
{
    StaticTopologySystem sys(testHier(),
                             Topology::symmetric(4, 4, 1, 1));
    EXPECT_EQ(sys.name(), "(4:1:1)");
    EXPECT_EQ(sys.numCores(), 4u);
}

TEST(StaticSystem, ChargesBusOnRemoteHitsByDefault)
{
    StaticTopologySystem sys(testHier(),
                             Topology::symmetric(4, 4, 1, 1));
    sys.access(MemAccess{0, 0x8000, AccessType::Read}, 0);
    const auto result =
        sys.access(MemAccess{3, 0x8000, AccessType::Read}, 1000);
    EXPECT_EQ(result.servedBy, ServedBy::L2Remote);
    EXPECT_EQ(result.latency, 3u + 25u); // merged-hit latency
}

TEST(StaticSystem, FlatLatencyModeMatchesPaperAssumption)
{
    // RemoteCost::None reproduces Section 4's idealization: fixed
    // local latency at any sharing degree.
    StaticTopologySystem sys(testHier(),
                             Topology::symmetric(4, 4, 1, 1),
                             RemoteCost::None);
    sys.access(MemAccess{0, 0x8000, AccessType::Read}, 0);
    const auto result =
        sys.access(MemAccess{3, 0x8000, AccessType::Read}, 1000);
    EXPECT_EQ(result.servedBy, ServedBy::L2Remote);
    EXPECT_EQ(result.latency, 3u + 10u);
}

TEST(Simulation, ProducesPlausibleIpc)
{
    FourMix workload(7);
    StaticTopologySystem sys(testHier(),
                             Topology::allPrivateTopology(4));
    Simulation sim(sys, workload, testSim());
    const RunResult result = sim.run();
    ASSERT_EQ(result.epochs.size(), 4u);
    ASSERT_EQ(result.avgIpc.size(), 4u);
    for (double ipc : result.avgIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LT(ipc, 4.0); // bounded by issue width
    }
    EXPECT_NEAR(result.avgThroughput,
                result.avgIpc[0] + result.avgIpc[1] +
                    result.avgIpc[2] + result.avgIpc[3],
                1e-9);
}

TEST(Simulation, DeterministicAcrossRuns)
{
    auto run_once = [] {
        FourMix workload(7);
        StaticTopologySystem sys(testHier(),
                                 Topology::symmetric(4, 2, 2, 1));
        Simulation sim(sys, workload, testSim());
        return sim.run().avgThroughput;
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Simulation, CacheFriendlierWorkloadHasHigherIpc)
{
    // Same system, same class (so the same streaming share): the
    // small-footprint profile must beat the slice-overflowing one.
    BenchmarkProfile small_fp;
    small_fp.name = "synthetic-small";
    small_fp.l2Acf = 0.20;
    small_fp.l3Acf = 0.25;
    small_fp.cls = 3;
    BenchmarkProfile big_fp = small_fp;
    big_fp.name = "synthetic-big";
    big_fp.l2Acf = 0.90;
    big_fp.l3Acf = 0.90;

    GeneratorParams gen = testGen();
    SoloWorkload tiny(small_fp, gen, 7);
    SoloWorkload big(big_fp, gen, 7);

    HierarchyParams hier = testHier(1);
    SimParams sim = testSim();

    StaticTopologySystem sys_a(hier, Topology::allPrivateTopology(1));
    Simulation sim_a(sys_a, tiny, sim);
    StaticTopologySystem sys_b(hier, Topology::allPrivateTopology(1));
    Simulation sim_b(sys_b, big, sim);

    EXPECT_GT(sim_a.run().avgThroughput, sim_b.run().avgThroughput);
}

TEST(MorphSystem, ReconfiguresAwayFromPrivate)
{
    FourMix workload(7);
    MorphCacheSystem sys(testHier(), MorphConfig{});
    SimParams params = testSim();
    params.epochs = 8;
    Simulation sim(sys, workload, params);
    sim.run();
    // cactusADM (hot) next to libquantum (cold) must trigger at
    // least one reconfiguration over 9 epochs.
    EXPECT_GT(sys.controller().stats().reconfigurations(), 0u);
}

TEST(MorphSystem, TracksBaselineOnBalancedLoad)
{
    // All-identical medium workloads: MorphCache should not lose
    // much to the private static topology (no bad merges).
    auto make_wl = [] {
        GeneratorParams gen = testGen();
        return std::make_unique<MixWorkload>(mixByName("MIX 12"),
                                             gen, 7);
    };
    // Note: MIX 12 is 16 cores.
    HierarchyParams hier = testHier(16);
    SimParams sim = testSim();

    auto wl1 = make_wl();
    StaticTopologySystem priv(hier, Topology::allPrivateTopology(16));
    Simulation sim1(priv, *wl1, sim);
    const double base = sim1.run().avgThroughput;

    auto wl2 = make_wl();
    MorphCacheSystem morph(hier, MorphConfig{});
    Simulation sim2(morph, *wl2, sim);
    const double tput = sim2.run().avgThroughput;

    EXPECT_GT(tput, 0.85 * base);
}

} // namespace
} // namespace morphcache
