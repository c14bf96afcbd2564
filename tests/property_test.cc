/**
 * @file
 * Property-based tests: invariants that must hold under randomized
 * access streams and reconfiguration sequences, swept across
 * parameter combinations with TEST_P.
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "morph/controller.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

HierarchyParams
propParams(std::uint32_t cores)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{1024, 2, 64};        // 16 lines
    params.l2.sliceGeom = CacheGeometry{4096, 4, 64};  // 64 lines
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64}; // 256 lines
    return params;
}

/** Check L1-within-L2-group and L2-within-L3-group inclusion. */
void
checkInclusion(Hierarchy &h)
{
    const auto &params = h.params();
    for (CoreId c = 0; c < params.numCores; ++c) {
        const auto &geom = params.l1Geom;
        for (std::uint64_t set = 0; set < geom.numSets(); ++set) {
            for (std::uint32_t way = 0; way < geom.assoc; ++way) {
                if (!h.l1(c).validAt(set, way))
                    continue;
                const Addr line = h.l1(c).lineAddrAt(set, way);
                ASSERT_TRUE(h.l2().presentInGroup(c, line))
                    << "L1 line not in L2 group (core " << c << ")";
            }
        }
    }
    for (std::uint32_t s = 0; s < params.numCores; ++s) {
        const auto &geom = params.l2.sliceGeom;
        for (std::uint64_t set = 0; set < geom.numSets(); ++set) {
            for (std::uint32_t way = 0; way < geom.assoc; ++way) {
                const CacheSlice slice =
                    h.l2().slice(static_cast<SliceId>(s));
                if (!slice.validAt(set, way))
                    continue;
                ASSERT_TRUE(h.l3().presentInGroup(
                    static_cast<CoreId>(s), slice.lineAddrAt(set, way)))
                    << "L2 line not backed by its L3 group (slice "
                    << s << ")";
            }
        }
    }
}

/** Random pow2-aligned topology over `cores` slices. */
Topology
randomTopology(Rng &rng, std::uint32_t cores)
{
    auto random_partition = [&](std::uint32_t max_log) {
        Partition partition;
        std::uint32_t at = 0;
        while (at < cores) {
            // Aligned power-of-two group fitting the remainder.
            std::uint32_t size;
            do {
                size = 1u << rng.below(max_log + 1);
            } while (at % size != 0 || at + size > cores);
            std::vector<SliceId> group;
            for (std::uint32_t i = 0; i < size; ++i)
                group.push_back(static_cast<SliceId>(at + i));
            partition.push_back(std::move(group));
            at += size;
        }
        return partition;
    };
    Topology topo;
    topo.numCores = cores;
    // Build L3 first, then refine it into an L2 partition so
    // inclusion feasibility holds by construction.
    topo.l3 = random_partition(
        static_cast<std::uint32_t>(floorLog2(cores)));
    topo.l2.clear();
    for (const auto &group : topo.l3) {
        std::uint32_t at = 0;
        while (at < group.size()) {
            std::uint32_t size;
            do {
                size = 1u << rng.below(
                           floorLog2(group.size()) + 1);
            } while (at % size != 0 || at + size > group.size());
            std::vector<SliceId> sub(group.begin() + at,
                                     group.begin() + at + size);
            topo.l2.push_back(std::move(sub));
            at += size;
        }
    }
    return topo;
}

class RandomizedHierarchy
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(RandomizedHierarchy, InclusionSurvivesReconfigurationStorm)
{
    const auto [cores, seed] = GetParam();
    Hierarchy h(propParams(static_cast<std::uint32_t>(cores)));
    Rng rng(static_cast<std::uint64_t>(seed));

    for (int round = 0; round < 8; ++round) {
        // Random access burst: clustered lines so reuse exists.
        for (int i = 0; i < 1500; ++i) {
            const auto core =
                static_cast<CoreId>(rng.below(cores));
            const Addr line = rng.below(2048);
            const MemAccess access{core, line << 6,
                                   rng.chance(0.3)
                                       ? AccessType::Write
                                       : AccessType::Read};
            const auto result = h.access(access, i);
            ASSERT_GT(result.latency, 0u);
        }
        checkInclusion(h);

        const Topology topo =
            randomTopology(rng, static_cast<std::uint32_t>(cores));
        ASSERT_TRUE(topo.respectsInclusion());
        h.reconfigure(topo);
        checkInclusion(h);
    }
}

TEST_P(RandomizedHierarchy, CapacityNeverExceeded)
{
    const auto [cores, seed] = GetParam();
    Hierarchy h(propParams(static_cast<std::uint32_t>(cores)));
    Rng rng(static_cast<std::uint64_t>(seed) ^ 0xabcd);

    for (int i = 0; i < 6000; ++i) {
        const auto core = static_cast<CoreId>(rng.below(cores));
        h.access(MemAccess{core, rng.below(1 << 20) << 6,
                           AccessType::Read},
                 i);
    }
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(cores);
         ++s) {
        EXPECT_LE(h.l2().slice(static_cast<SliceId>(s))
                      .validLineCount(),
                  h.params().l2.sliceGeom.numLines());
        EXPECT_LE(h.l3().slice(static_cast<SliceId>(s))
                      .validLineCount(),
                  h.params().l3.sliceGeom.numLines());
    }
}

INSTANTIATE_TEST_SUITE_P(
    CoresAndSeeds, RandomizedHierarchy,
    ::testing::Combine(::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 3)));

class ControllerStorm : public ::testing::TestWithParam<int>
{
};

TEST_P(ControllerStorm, TopologyAlwaysValidUnderRandomTraffic)
{
    const int seed = GetParam();
    const std::uint32_t cores = 8;
    Hierarchy h(propParams(cores));
    MorphConfig config;
    MorphController ctrl(config, cores);
    Rng rng(static_cast<std::uint64_t>(seed));

    for (int epoch = 0; epoch < 12; ++epoch) {
        // Wildly skewed random footprints each epoch.
        for (CoreId c = 0; c < cores; ++c) {
            const Addr base = (Addr{c} + 1) << 24;
            const auto granules = 4 + rng.below(100);
            for (int pass = 0; pass < 2; ++pass) {
                for (Addr g = 0; g < granules; ++g) {
                    h.access(MemAccess{c,
                                       (base + g * 16 + g % 16)
                                           << 6,
                                       AccessType::Read},
                             epoch);
                }
            }
        }
        ctrl.epochBoundary(h);
        // The applied topology must always be well-formed.
        validatePartition(h.topology().l2, cores);
        validatePartition(h.topology().l3, cores);
        ASSERT_TRUE(h.topology().respectsInclusion());
        ASSERT_TRUE(topologyFindings(h.topology(), ShapeRule::AlignedPow2)
                        .empty());
        checkInclusion(h);
    }
    EXPECT_EQ(ctrl.stats().decisions, 12u);
    EXPECT_GT(ctrl.stats().merges, 0u); // the storm reconfigures
}

TEST_P(ControllerStorm, ArbitrarySizesStayContiguousAndValid)
{
    const int seed = GetParam();
    const std::uint32_t cores = 8;
    Hierarchy h(propParams(cores));
    MorphConfig config;
    config.allowArbitraryGroupSizes = true;
    MorphController ctrl(config, cores);
    Rng rng(static_cast<std::uint64_t>(seed) ^ 0x77);

    for (int epoch = 0; epoch < 10; ++epoch) {
        for (CoreId c = 0; c < cores; ++c) {
            const Addr base = (Addr{c} + 1) << 24;
            const auto granules = 4 + rng.below(100);
            for (int pass = 0; pass < 2; ++pass) {
                for (Addr g = 0; g < granules; ++g) {
                    h.access(MemAccess{c,
                                       (base + g * 16 + g % 16)
                                           << 6,
                                       AccessType::Read},
                             epoch);
                }
            }
        }
        ctrl.epochBoundary(h);
        validatePartition(h.topology().l2, cores);
        validatePartition(h.topology().l3, cores);
        ASSERT_TRUE(h.topology().respectsInclusion());
        ASSERT_TRUE(isContiguous(h.topology().l2));
        ASSERT_TRUE(isContiguous(h.topology().l3));
    }
    EXPECT_GT(ctrl.stats().merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerStorm,
                         ::testing::Values(11, 22, 33, 44));

TEST(Determinism, FullMorphRunIsBitStable)
{
    auto run = [] {
        const HierarchyParams hier = [] {
            HierarchyParams p = propParams(8);
            return p;
        }();
        GeneratorParams gen = generatorFor(hier);
        MixSpec spec = mixByName("MIX 12");
        spec.benchmarks.resize(8);
        MixWorkload workload(spec, gen, 99);
        MorphCacheSystem system(hier, MorphConfig{});
        SimParams sim;
        sim.refsPerEpochPerCore = 1500;
        sim.epochs = 5;
        sim.warmupEpochs = 1;
        Simulation simulation(system, workload, sim);
        return simulation.run().avgThroughput;
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Determinism, CheckpointedCopyDivergesNever)
{
    Hierarchy h(propParams(4));
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        h.access(MemAccess{static_cast<CoreId>(rng.below(4)),
                           rng.below(4096) << 6, AccessType::Read},
                 i);
    }
    Hierarchy copy = h;
    // Identical subsequent streams must produce identical results.
    Rng follow_a(77), follow_b(77);
    for (int i = 0; i < 2000; ++i) {
        const MemAccess a{static_cast<CoreId>(follow_a.below(4)),
                          follow_a.below(4096) << 6,
                          AccessType::Read};
        const MemAccess b{static_cast<CoreId>(follow_b.below(4)),
                          follow_b.below(4096) << 6,
                          AccessType::Read};
        const auto ra = h.access(a, i);
        const auto rb = copy.access(b, i);
        ASSERT_EQ(ra.latency, rb.latency);
        ASSERT_EQ(static_cast<int>(ra.servedBy),
                  static_cast<int>(rb.servedBy));
    }
}

} // namespace
} // namespace morphcache
