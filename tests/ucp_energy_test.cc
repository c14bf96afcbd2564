/**
 * @file
 * Tests for the UCP baseline and the energy model.
 */

#include <gtest/gtest.h>

#include "baselines/ucp.hh"
#include "sim/config.hh"
#include "sim/energy.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

HierarchyParams
testHier(std::uint32_t cores = 4)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{2048, 2, 64};
    params.l2.sliceGeom = CacheGeometry{16384, 4, 64};
    params.l3.sliceGeom = CacheGeometry{65536, 8, 64};
    return params;
}

TEST(Ucp, QuotasPartitionAllWays)
{
    GeneratorParams gen;
    gen.l2SliceLines = 256;
    gen.l3SliceLines = 1024;
    MixWorkload workload(mixByName("MIX 08"), gen, 7);

    const auto system = makeUcpSystem(HierarchyParams::defaultParams(16));
    SimParams sim;
    sim.refsPerEpochPerCore = 1500;
    sim.epochs = 3;
    sim.warmupEpochs = 1;
    Simulation simulation(*system, workload, sim);
    EXPECT_GT(simulation.run().avgThroughput, 0.0);

    const auto *policy = dynamic_cast<const UcpPolicy *>(system->l2Policy());
    ASSERT_NE(policy, nullptr);
    std::uint32_t total = 0;
    for (CoreId c = 0; c < 16; ++c) {
        EXPECT_GE(policy->quota(c), 1u);
        total += policy->quota(c);
    }
    EXPECT_EQ(total, 128u);
}

TEST(Ucp, QuotaEnforcementEvictsOwnLines)
{
    // A single hot core under a tight quota must victim its own
    // lines, leaving other cores' lines resident.
    UcpPolicy policy(/*cores=*/2, /*sets=*/64, /*slices=*/2,
                     /*assoc=*/4);
    LevelParams level_params;
    level_params.numSlices = 2;
    level_params.sliceGeom = CacheGeometry{16 * 1024, 4, 64};
    CacheLevelModel level(level_params);
    level.configure(allShared(2));
    level.setHooks(&policy);

    // Core 1 installs two lines in set 0.
    level.insert(1, 0 * 64, false);
    level.insert(1, 64 * 64, false);
    // Core 0 installs many same-set lines; default quota is 4 each,
    // so once past 4 it must recycle its own.
    for (Addr k = 1; k <= 10; ++k)
        level.insert(0, (k * 64 + 32) * 64, false);
    // Core 1's lines must still be resident.
    EXPECT_TRUE(level.presentInGroup(1, 0 * 64));
    EXPECT_TRUE(level.presentInGroup(1, 64 * 64));
}

TEST(Energy, AccumulatesPerComponent)
{
    Hierarchy h(testHier());
    for (Addr line = 0; line < 200; ++line)
        h.access(MemAccess{0, line << 6, AccessType::Read}, 0);
    const EnergyBreakdown e = accountEnergy(h);
    EXPECT_GT(e.l1, 0.0);
    EXPECT_GT(e.l2, 0.0);
    EXPECT_GT(e.l3, 0.0);
    EXPECT_GT(e.memory, 0.0);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.l1 + e.l2 + e.l3 + e.memory + e.bus);
}

TEST(Energy, SharedGroupsCostMoreProbesAndBus)
{
    auto run = [](const Topology &topo) {
        Hierarchy h(testHier());
        h.reconfigure(topo);
        Rng rng(5);
        for (int i = 0; i < 4000; ++i) {
            h.access(MemAccess{static_cast<CoreId>(rng.below(4)),
                               rng.below(4096) << 6,
                               AccessType::Read},
                     i);
        }
        return accountEnergy(h);
    };
    const EnergyBreakdown priv =
        run(Topology::allPrivateTopology(4));
    const EnergyBreakdown shared =
        run(Topology::symmetric(4, 4, 1, 1));
    EXPECT_GT(shared.l2, priv.l2);   // broadcast probes
    EXPECT_GT(shared.bus, priv.bus); // full-span transactions
    EXPECT_EQ(priv.bus, 0.0);        // private groups never bus
}

TEST(Energy, BusEnergyScalesWithSpan)
{
    // Same traffic, pair groups vs one big group: the big group's
    // bus events drive a longer physical segment.
    auto bus_energy = [](const Topology &topo) {
        Hierarchy h(testHier());
        h.reconfigure(topo);
        // Core 0 fills; core 1/2/3 hit remotely where allowed.
        for (Addr line = 0; line < 64; ++line)
            h.access(MemAccess{0, line << 6, AccessType::Read}, 0);
        for (CoreId c = 1; c < 4; ++c) {
            for (Addr line = 0; line < 64; ++line) {
                h.access(MemAccess{c, line << 6, AccessType::Read},
                         1000);
            }
        }
        return accountEnergy(h).bus;
    };
    Topology pairs;
    pairs.numCores = 4;
    pairs.l2 = {{0, 1}, {2, 3}};
    pairs.l3 = {{0, 1}, {2, 3}};
    const double pair_bus = bus_energy(pairs);
    const double quad_bus =
        bus_energy(Topology::symmetric(4, 4, 1, 1));
    EXPECT_GT(quad_bus, pair_bus);
}

} // namespace
} // namespace morphcache
