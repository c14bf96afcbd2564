/**
 * @file
 * Edge-case tests for the hierarchy: dirty-data movement across
 * coherence events, writeback accounting, and reconfiguration in
 * the presence of dirty lines.
 */

#include <gtest/gtest.h>

#include "hierarchy/hierarchy.hh"

namespace morphcache {
namespace {

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

TEST(HierarchyEdge, WriteAfterRemoteDirtyCopy)
{
    Hierarchy h(smallParams(4, /*coherence=*/true));
    // Core 0 dirties a line; core 1 then writes the same line.
    h.access(write(0, 0x500), 0);
    const auto result = h.access(write(1, 0x500), 100);
    EXPECT_NE(result.servedBy, ServedBy::L1);
    // Core 0's copies must be gone; core 1 owns the line dirty.
    EXPECT_FALSE(h.l2().presentInGroup(0, 0x500));
    EXPECT_FALSE(h.l1(0).contains(0x500));
    EXPECT_TRUE(h.l1(1).contains(0x500));
}

TEST(HierarchyEdge, PingPongWritesStayCorrect)
{
    Hierarchy h(smallParams(2, /*coherence=*/true));
    for (int round = 0; round < 10; ++round) {
        h.access(write(0, 0x700), round * 10);
        h.access(write(1, 0x700), round * 10 + 5);
    }
    // Exactly one L1 holds the line at the end (the last writer).
    const int copies = (h.l1(0).contains(0x700) ? 1 : 0) +
                       (h.l1(1).contains(0x700) ? 1 : 0);
    EXPECT_EQ(copies, 1);
    EXPECT_TRUE(h.l1(1).contains(0x700));
}

TEST(HierarchyEdge, L3DirtyEvictionCountsWriteback)
{
    Hierarchy h(smallParams(1));
    // Dirty a line, then force it down and out of the L3 set by
    // filling 9 same-L3-set lines (8-way L3).
    const std::uint64_t l3_sets = 32;
    h.access(write(0, 7), 0);
    // Push it out of L1 (2-way, 8 sets) and L2 (4-way, 16 sets)
    // first via same-set traffic, then out of L3.
    for (std::uint64_t k = 1; k <= 9; ++k)
        h.access(read(0, 7 + k * l3_sets), 0);
    EXPECT_FALSE(h.l3().presentInGroup(0, 7));
    EXPECT_GE(h.coreStats(0).writebacks, 1u);
}

TEST(HierarchyEdge, ReconfigurePreservesDirtyDataReachability)
{
    Hierarchy h(smallParams(4));
    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2, 3}};
    merged.l3 = {{0, 1}, {2, 3}};
    h.reconfigure(merged);

    // Dirty lines written while merged...
    for (Addr line = 0; line < 32; ++line)
        h.access(write(0, 0x800 + line), 0);
    // ...must remain reachable (and correct) after splitting.
    h.reconfigure(Topology::allPrivateTopology(4));
    for (Addr line = 0; line < 32; ++line) {
        const auto result = h.access(read(0, 0x800 + line), 1000);
        EXPECT_NE(static_cast<int>(result.servedBy),
                  static_cast<int>(ServedBy::OtherGroup));
        EXPECT_GT(result.latency, 0u);
    }
}

TEST(HierarchyEdge, AccessCountsAreExact)
{
    Hierarchy h(smallParams(2));
    for (int i = 0; i < 123; ++i)
        h.access(read(0, static_cast<Addr>(i)), i);
    for (int i = 0; i < 45; ++i)
        h.access(write(1, static_cast<Addr>(i)), i);
    EXPECT_EQ(h.coreStats(0).accesses, 123u);
    EXPECT_EQ(h.coreStats(1).accesses, 45u);
    // Every access is accounted to exactly one service level.
    const CoreStats &s = h.coreStats(0);
    EXPECT_EQ(s.l1Hits + s.l2LocalHits + s.l2RemoteHits +
                  s.l3LocalHits + s.l3RemoteHits +
                  s.otherGroupTransfers + s.memAccesses,
              s.accesses);
}

TEST(HierarchyEdge, ResetCoreStatsZeroesCounters)
{
    Hierarchy h(smallParams(2));
    h.access(read(0, 1), 0);
    h.resetCoreStats();
    EXPECT_EQ(h.coreStats(0).accesses, 0u);
    EXPECT_EQ(h.coreStats(0).memAccesses, 0u);
}

} // namespace
} // namespace morphcache
