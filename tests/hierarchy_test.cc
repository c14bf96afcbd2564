/**
 * @file
 * Integration tests for the full three-level hierarchy: latencies,
 * inclusion, back-invalidation, writebacks, coherence, and
 * reconfiguration.
 */

#include <gtest/gtest.h>

#include "hierarchy/hierarchy.hh"

namespace morphcache {
namespace {

/** Small hierarchy: fast to fill in tests. */
HierarchyParams
smallParams(std::uint32_t cores = 4, bool coherence = false)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{1024, 2, 64};        // 16 lines
    params.l2.sliceGeom = CacheGeometry{4096, 4, 64};  // 64 lines
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64}; // 256 lines
    params.coherence = coherence;
    return params;
}

MemAccess
read(CoreId core, Addr line)
{
    return MemAccess{core, line << 6, AccessType::Read};
}

MemAccess
write(CoreId core, Addr line)
{
    return MemAccess{core, line << 6, AccessType::Write};
}

TEST(Hierarchy, ColdMissLatency)
{
    Hierarchy h(smallParams());
    const auto result = h.access(read(0, 0x1000), 0);
    EXPECT_EQ(result.servedBy, ServedBy::Memory);
    // 3 (L1) + 10 (L2) + 30 (L3) + 300 (memory).
    EXPECT_EQ(result.latency, 343u);
    EXPECT_EQ(h.coreStats(0).memAccesses, 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Hierarchy h(smallParams());
    h.access(read(0, 0x1000), 0);
    const auto result = h.access(read(0, 0x1000), 400);
    EXPECT_EQ(result.servedBy, ServedBy::L1);
    EXPECT_EQ(result.latency, 3u);
    EXPECT_EQ(h.coreStats(0).l1Hits, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    const HierarchyParams params = smallParams();
    Hierarchy h(params);
    h.access(read(0, 0x1000), 0);
    // Evict 0x1000 from the 2-way L1 set by touching two more lines
    // mapping to the same L1 set (L1 has 8 sets).
    h.access(read(0, 0x1000 + 8), 0);
    h.access(read(0, 0x1000 + 16), 0);
    const auto result = h.access(read(0, 0x1000), 0);
    EXPECT_EQ(result.servedBy, ServedBy::L2Local);
    EXPECT_EQ(result.latency, 13u); // 3 + 10
}

TEST(Hierarchy, InclusionAfterFill)
{
    Hierarchy h(smallParams());
    h.access(read(0, 0x1000), 0);
    EXPECT_TRUE(h.l2().presentInGroup(0, 0x1000));
    EXPECT_TRUE(h.l3().presentInGroup(0, 0x1000));
}

TEST(Hierarchy, L3EvictionBackInvalidatesL2AndL1)
{
    Hierarchy h(smallParams(1));
    // L3 slice: 256 lines, 8-way, 32 sets. Fill one L3 set (8
    // lines in the same L3 set) and then one more.
    const std::uint64_t l3_sets = 32;
    for (std::uint64_t k = 0; k < 9; ++k)
        h.access(read(0, 7 + (k + 1) * l3_sets), 0);
    // The first line was LRU in L3 and must be gone everywhere.
    const Addr victim = 7 + l3_sets;
    EXPECT_FALSE(h.l3().presentInGroup(0, victim));
    EXPECT_FALSE(h.l2().presentInGroup(0, victim));
    EXPECT_FALSE(h.l1(0).contains(victim));
    // Re-access misses to memory (inclusion was enforced).
    const auto result = h.access(read(0, victim), 0);
    EXPECT_EQ(result.servedBy, ServedBy::Memory);
}

TEST(Hierarchy, DirtyWritebackOnEviction)
{
    Hierarchy h(smallParams(1));
    h.access(write(0, 0x500), 0);
    // L1 is 2-way x 8 sets; push two same-set lines to evict the
    // dirty line into L2 (markDirty path, no memory writeback).
    h.access(read(0, 0x500 + 8), 0);
    h.access(read(0, 0x500 + 16), 0);
    EXPECT_EQ(h.coreStats(0).writebacks, 0u);
    EXPECT_TRUE(h.l2().presentInGroup(0, 0x500));
}

TEST(Hierarchy, MergedTopologyShowsRemoteHits)
{
    Hierarchy h(smallParams());
    Topology topo;
    topo.numCores = 4;
    topo.l2 = {{0, 1}, {2}, {3}};
    topo.l3 = {{0, 1}, {2}, {3}};
    h.reconfigure(topo);

    h.access(read(0, 0x2000), 0); // fills core 0's slices
    // L1 of core 1 misses; its L2 group includes slice 0: remote.
    // Issue well after core 0's bus transaction has drained so the
    // uncontended merged-hit latency is observed.
    const auto result = h.access(read(1, 0x2000), 1000);
    EXPECT_EQ(result.servedBy, ServedBy::L2Remote);
    EXPECT_EQ(result.latency, 3u + 25u); // L1 + merged L2 hit
    EXPECT_EQ(h.coreStats(1).l2RemoteHits, 1u);
}

TEST(Hierarchy, ReconfigureRejectsInclusionViolation)
{
    Hierarchy h(smallParams());
    Topology bad;
    bad.numCores = 4;
    bad.l2 = {{0, 1}, {2}, {3}};
    bad.l3 = allPrivate(4);
    EXPECT_DEATH(h.reconfigure(bad), "inclusion");
}

TEST(Hierarchy, SplitStrandedLinesAgeOutSafely)
{
    HierarchyParams params = smallParams();
    Hierarchy h(params);
    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2}, {3}};
    merged.l3 = {{0, 1}, {2}, {3}};
    h.reconfigure(merged);

    // Overfill one L2 set from core 0 so lines spill into slice 1.
    const std::uint64_t l2_sets = 16; // 64 lines, 4-way
    for (std::uint64_t k = 0; k < 8; ++k)
        h.access(read(0, 3 + (k + 1) * l2_sets), 0);

    // Split back to private: core 0 can no longer see slice 1's
    // lines, but the hierarchy must stay consistent.
    h.reconfigure(Topology::allPrivateTopology(4));
    for (std::uint64_t k = 0; k < 8; ++k) {
        const Addr line = 3 + (k + 1) * l2_sets;
        const auto result = h.access(read(0, line), 0);
        EXPECT_NE(result.servedBy, ServedBy::L2Remote);
    }
}

TEST(Hierarchy, L3SplitEnforcesL2Inclusion)
{
    Hierarchy h(smallParams());
    Topology merged;
    merged.numCores = 4;
    merged.l2 = allPrivate(4);
    merged.l3 = {{0, 1}, {2}, {3}};
    h.reconfigure(merged);

    // Core 0 fills; some L3 insertions can land in slice 1.
    for (Addr line = 0; line < 300; ++line)
        h.access(read(0, line), 0);

    // Split L3: any L2 line whose only L3 copy sat in slice 1 must
    // be invalidated from L2 (inclusion).
    h.reconfigure(Topology::allPrivateTopology(4));
    const auto &geom = h.params().l2.sliceGeom;
    for (std::uint64_t set = 0; set < geom.numSets(); ++set) {
        for (std::uint32_t way = 0; way < geom.assoc; ++way) {
            if (!h.l2().slice(0).validAt(set, way))
                continue;
            EXPECT_TRUE(h.l3().presentInGroup(
                0, h.l2().slice(0).lineAddrAt(set, way)));
        }
    }
}

TEST(HierarchyCoherence, WriteInvalidatesOtherCores)
{
    Hierarchy h(smallParams(4, /*coherence=*/true));
    h.access(read(0, 0x3000), 0);
    h.access(read(1, 0x3000), 0); // replicated in core 1's caches
    EXPECT_TRUE(h.l2().presentInGroup(1, 0x3000));

    h.access(write(0, 0x3000), 0);
    EXPECT_FALSE(h.l2().presentInGroup(1, 0x3000));
    EXPECT_FALSE(h.l1(1).contains(0x3000));
    EXPECT_TRUE(h.l2().presentInGroup(0, 0x3000));
}

TEST(HierarchyCoherence, ReadServedByOtherGroup)
{
    Hierarchy h(smallParams(4, /*coherence=*/true));
    h.access(read(0, 0x4000), 0);
    const auto result = h.access(read(1, 0x4000), 0);
    EXPECT_EQ(result.servedBy, ServedBy::OtherGroup);
    EXPECT_EQ(h.coreStats(1).otherGroupTransfers, 1u);
    // Both copies coexist for reads.
    EXPECT_TRUE(h.l3().presentInGroup(0, 0x4000));
    EXPECT_TRUE(h.l3().presentInGroup(1, 0x4000));
}

TEST(HierarchyCoherence, NoSnoopWithoutCoherence)
{
    Hierarchy h(smallParams(4, /*coherence=*/false));
    h.access(read(0, 0x4000), 0);
    const auto result = h.access(read(1, 0x4000), 0);
    EXPECT_EQ(result.servedBy, ServedBy::Memory);
}

TEST(Hierarchy, CheckpointRestoreByCopy)
{
    Hierarchy h(smallParams());
    for (Addr line = 0; line < 100; ++line)
        h.access(read(0, line), 0);

    const Hierarchy snapshot = h; // full state copy
    for (Addr line = 100; line < 200; ++line)
        h.access(read(0, line), 0);

    // The snapshot still reflects the old state.
    EXPECT_TRUE(snapshot.l2().presentInGroup(0, 50));
    EXPECT_FALSE(snapshot.l2().presentInGroup(0, 150));
    EXPECT_EQ(snapshot.coreStats(0).accesses, 100u);
    EXPECT_EQ(h.coreStats(0).accesses, 200u);
}

TEST(Hierarchy, EightAndSixteenCoreConfigs)
{
    for (std::uint32_t cores : {8u, 16u}) {
        Hierarchy h(smallParams(cores));
        for (std::uint32_t c = 0; c < cores; ++c) {
            const auto result =
                h.access(read(static_cast<CoreId>(c), 0x100 + c), 0);
            EXPECT_EQ(result.servedBy, ServedBy::Memory);
        }
        h.reconfigure(Topology::symmetric(cores, cores, 1, 1));
        EXPECT_EQ(h.topology().l2.size(), 1u);
    }
}

} // namespace
} // namespace morphcache
