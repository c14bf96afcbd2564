/**
 * @file
 * Unit tests for CacheLevelModel: group lookup, merged-capacity
 * sharing, lazy invalidation, latency accounting, footprint
 * queries, and the PIPP/DSR policy primitives.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "hierarchy/cache_level.hh"

namespace morphcache {
namespace {

LevelParams
smallLevel(std::uint32_t slices = 4)
{
    LevelParams params;
    params.name = "L2";
    params.numSlices = slices;
    params.sliceGeom = CacheGeometry{16 * 1024, 4, 64}; // 256 lines
    params.localHitLatency = 10;
    return params;
}

/** Distinct lines mapping to one set of the small geometry. */
Addr
lineInSet(std::uint64_t set, std::uint64_t k)
{
    return set + (k + 1) * smallLevel().sliceGeom.numSets();
}

TEST(CacheLevel, PrivateLookupMiss)
{
    CacheLevelModel level(smallLevel());
    const auto out = level.lookup(0, 0x100, 0);
    EXPECT_FALSE(out.hit);
    EXPECT_EQ(out.latency, 10u);
    EXPECT_EQ(level.stats().misses, 1u);
}

TEST(CacheLevel, InsertThenLocalHit)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x100, false);
    const auto out = level.lookup(0, 0x100, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_FALSE(out.remote);
    EXPECT_EQ(out.slice, 0);
    EXPECT_EQ(out.latency, 10u);
}

TEST(CacheLevel, PrivateGroupsIsolate)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x100, false);
    // Core 1 is in a different (private) group: no hit.
    EXPECT_FALSE(level.lookup(1, 0x100, 0).hit);
}

/** One row of the remote-cost table: a level under one cost. */
struct RemoteCostRow
{
    RemoteCost cost;
    const char *level;
    Cycle localHit;
    /** Latency of a hit in the other slice of a merged pair. */
    Cycle remoteHit;
    /** Latency of a miss in the merged pair. */
    Cycle mergedMiss;
};

class CacheLevelRemoteCost : public ::testing::TestWithParam<RemoteCostRow>
{
};

const char *
remoteCostName(RemoteCost cost)
{
    static constexpr const char *names[] = {"Bus", "Premium", "None"};
    return names[static_cast<int>(cost)];
}

void
PrintTo(const RemoteCostRow &row, std::ostream *os)
{
    *os << remoteCostName(row.cost) << ' ' << row.level;
}

TEST_P(CacheLevelRemoteCost, MergedRemoteHitAndMiss)
{
    const RemoteCostRow &row = GetParam();
    LevelParams params = smallLevel();
    params.name = row.level;
    params.localHitLatency = row.localHit;
    params.remoteCost = row.cost;
    CacheLevelModel level(params);
    level.insert(0, 0x100, false);
    level.configure({{0, 1}, {2}, {3}});
    const auto out = level.lookup(1, 0x100, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.remote);
    EXPECT_EQ(out.slice, 0);
    EXPECT_EQ(out.latency, row.remoteHit);
    // Long after the hit's transaction drained, so nothing queues.
    const auto miss = level.lookup(1, 0x200, 1000);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.latency, row.mergedMiss);
    EXPECT_EQ(level.bus().numTransactions(),
              row.cost == RemoteCost::Bus ? 2u : 0u);
}

// The bus and the premium both add one 15-cycle transaction to a
// remote hit (10 + 15 = the paper's 25-cycle merged L2 hit); only
// the bus broadcasts a merged miss, a 10-cycle request-only
// transaction.
INSTANTIATE_TEST_SUITE_P(
    RemoteCostTable, CacheLevelRemoteCost,
    ::testing::Values(
        RemoteCostRow{RemoteCost::Bus, "L2", 10, 25, 20},
        RemoteCostRow{RemoteCost::Premium, "L2", 10, 25, 10},
        RemoteCostRow{RemoteCost::None, "L2", 10, 10, 10},
        RemoteCostRow{RemoteCost::Bus, "L3", 30, 45, 40},
        RemoteCostRow{RemoteCost::Premium, "L3", 30, 45, 30},
        RemoteCostRow{RemoteCost::None, "L3", 30, 30, 30}),
    [](const ::testing::TestParamInfo<RemoteCostRow> &row) {
        return remoteCostName(row.param.cost) +
               std::string(row.param.level);
    });

TEST(CacheLevel, StaticModeDoesNotChargeBus)
{
    LevelParams params = smallLevel();
    params.remoteCost = RemoteCost::None;
    CacheLevelModel level(params);
    level.insert(0, 0x100, false);
    level.configure({{0, 1}, {2}, {3}});
    const auto out = level.lookup(1, 0x100, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(out.latency, 10u);
}

TEST(CacheLevel, MergedCapacityIsShared)
{
    CacheLevelModel level(smallLevel(2));
    level.configure({{0, 1}});
    const std::uint64_t set = 3;
    // Insert 8 lines into one set: 4 ways/slice x 2 slices all hold.
    for (std::uint64_t k = 0; k < 8; ++k)
        level.insert(0, lineInSet(set, k), false);
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_TRUE(level.presentInGroup(0, lineInSet(set, k)));
    // A 9th line evicts exactly one (the LRU).
    level.insert(0, lineInSet(set, 8), false);
    int resident = 0;
    for (std::uint64_t k = 0; k < 9; ++k)
        resident += level.presentInGroup(0, lineInSet(set, k));
    EXPECT_EQ(resident, 8);
    EXPECT_FALSE(level.presentInGroup(0, lineInSet(set, 0)));
}

TEST(CacheLevel, SplitKeepsLinesInTheirPhysicalSlices)
{
    CacheLevelModel level(smallLevel(2));
    level.configure({{0, 1}});
    // Fill the merged set beyond one slice's ways so lines land in
    // both physical slices.
    const std::uint64_t set = 5;
    for (std::uint64_t k = 0; k < 8; ++k)
        level.insert(0, lineInSet(set, k), false);
    const std::uint64_t in_slice0 = level.slice(0).validLineCount();
    const std::uint64_t in_slice1 = level.slice(1).validLineCount();
    EXPECT_EQ(in_slice0 + in_slice1, 8u);
    EXPECT_GT(in_slice1, 0u); // spillover happened

    // Split: no data motion, each slice keeps its ways.
    level.configure({{0}, {1}});
    EXPECT_EQ(level.slice(0).validLineCount(), in_slice0);
    EXPECT_EQ(level.slice(1).validLineCount(), in_slice1);
}

TEST(CacheLevel, LazyInvalidationDropsDuplicates)
{
    CacheLevelModel level(smallLevel(2));
    // Same line in both slices while private (e.g. shared data).
    level.insert(0, 0x80, false);
    level.insert(1, 0x80, false);
    EXPECT_TRUE(level.slice(0).contains(0x80));
    EXPECT_TRUE(level.slice(1).contains(0x80));

    // Merge, then touch the line: exactly one copy must survive.
    level.configure({{0, 1}});
    const auto out = level.lookup(0, 0x80, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(level.stats().lazyInvalidations, 1u);
    const int copies = level.slice(0).contains(0x80) +
                       level.slice(1).contains(0x80);
    EXPECT_EQ(copies, 1);
}

TEST(CacheLevel, AcfvGranularityIsTagSized)
{
    // 16 KB 4-way: 256 lines, 64 sets -> one footprint unit per 64
    // consecutive lines, the tag granularity of Section 2.1.
    CacheLevelModel level(smallLevel());
    EXPECT_EQ(level.acfvGranularity(), 64u);
}

TEST(CacheLevel, AcfvTracksDispersedFootprint)
{
    CacheLevelModel level(smallLevel());
    // One line in each of 64 distinct tag granules (offset spread
    // across sets): half the 128 ACFV bits.
    for (Addr granule = 0; granule < 64; ++granule)
        level.insert(0, granule * 64 + (granule % 64), false);
    const double util = level.acfvs().utilization(std::vector<SliceId>{0});
    EXPECT_GT(util, 0.35);
    EXPECT_LT(util, 0.6);
}

TEST(CacheLevel, SequentialStreamReadsTinyFootprint)
{
    // A sequential stream resident in the slice spans few tags, so
    // its footprint estimate stays small — the reason Table 4 shows
    // libquantum at 0.26 despite touching megabytes.
    CacheLevelModel level(smallLevel());
    for (Addr a = 0; a < 4096; ++a)
        level.insert(0, a, false);
    // Slice holds <=256 lines = <=4 consecutive granules.
    EXPECT_LT(level.acfvs().utilization(std::vector<SliceId>{0}), 0.10);
}

TEST(CacheLevel, ResetFootprintsClears)
{
    CacheLevelModel level(smallLevel());
    for (Addr a = 0; a < 64; ++a)
        level.insert(0, a, false);
    EXPECT_GT(level.acfvs().utilization(std::vector<SliceId>{0}), 0.0);
    level.resetFootprints();
    EXPECT_EQ(level.acfvs().utilization(std::vector<SliceId>{0}), 0.0);
}

TEST(CacheLevel, OverlapSeesSharedData)
{
    CacheLevelModel level(smallLevel());
    // Cores 0 and 1 touch the same dispersed granules in their own
    // slices.
    for (Addr granule = 0; granule < 32; ++granule) {
        level.insert(0, granule * 64, false);
        level.insert(1, granule * 64, false);
    }
    EXPECT_GT(level.acfvs().overlap(std::vector<SliceId>{0},
                                    std::vector<SliceId>{1}), 0.9);
    // Core 2 touches disjoint granules.
    for (Addr granule = 32; granule < 64; ++granule)
        level.insert(2, granule * 64, false);
    EXPECT_LT(level.acfvs().overlap(std::vector<SliceId>{0},
                                    std::vector<SliceId>{2}), 0.3);
}

TEST(CacheLevel, MarkDirtyFindsGroupLines)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x42, false);
    EXPECT_TRUE(level.markDirty(0, 0x42));
    EXPECT_FALSE(level.markDirty(0, 0x999));
    level.configure({{0, 1}, {2}, {3}});
    EXPECT_TRUE(level.markDirty(1, 0x42)); // via the merged group
}

TEST(CacheLevel, InvalidateInSlicesReportsDirty)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x42, true);
    EXPECT_TRUE(level.invalidateInSlices(std::vector<SliceId>{0}, 0x42));
    EXPECT_FALSE(level.presentInGroup(0, 0x42));
    EXPECT_FALSE(level.invalidateInSlices(std::vector<SliceId>{0}, 0x42));
}

TEST(CacheLevel, FindInOtherGroups)
{
    CacheLevelModel level(smallLevel());
    level.insert(2, 0x55, false);
    const auto found = level.findInOtherGroups(0, 0x55);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 2);
    EXPECT_FALSE(level.findInOtherGroups(2, 0x55).has_value());
}

TEST(CacheLevel, InvalidateOutsideGroupSparesOwnCopy)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x66, false);
    level.insert(1, 0x66, false);
    level.invalidateOutsideGroup(0, 0x66);
    EXPECT_TRUE(level.presentInGroup(0, 0x66));
    EXPECT_FALSE(level.presentInGroup(1, 0x66));
}

TEST(CacheLevel, SpanPenaltyForNonNeighborGroups)
{
    CacheLevelModel level(smallLevel());
    level.insert(0, 0x100, false);
    // Group {0,3} spans 4 tiles with only 2 members: 2 extra tiles.
    level.configure({{0, 3}, {1}, {2}});
    const auto out = level.lookup(3, 0x100, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.remote);
    // 10 local + 15 bus + 2*2 span stretch.
    EXPECT_EQ(out.latency, 29u);
}

// ---- PIPP/DSR primitives -----------------------------------------

TEST(CacheLevelPolicy, InsertAtLruPositionIsNextVictim)
{
    CacheLevelModel level(smallLevel(1));
    const std::uint64_t set = 1;
    for (std::uint64_t k = 0; k < 4; ++k)
        level.insert(0, lineInSet(set, k), false);
    // Insert at stack position 0 (LRU): evicts current LRU (k=0)
    // and becomes the next victim itself.
    level.insertAtStackPosition(0, lineInSet(set, 10), false, 0);
    EXPECT_FALSE(level.presentInGroup(0, lineInSet(set, 0)));
    level.insert(0, lineInSet(set, 11), false);
    EXPECT_FALSE(level.presentInGroup(0, lineInSet(set, 10)));
}

TEST(CacheLevelPolicy, InsertAtMruSurvives)
{
    CacheLevelModel level(smallLevel(1));
    const std::uint64_t set = 1;
    for (std::uint64_t k = 0; k < 4; ++k)
        level.insert(0, lineInSet(set, k), false);
    level.insertAtStackPosition(0, lineInSet(set, 10), false, 10);
    // Fill three more: the MRU-inserted line must still be there.
    for (std::uint64_t k = 20; k < 23; ++k)
        level.insert(0, lineInSet(set, k), false);
    EXPECT_TRUE(level.presentInGroup(0, lineInSet(set, 10)));
}

TEST(CacheLevelPolicy, PromoteByOneSwapsNeighbors)
{
    CacheLevelModel level(smallLevel(1));
    const std::uint64_t set = 1;
    for (std::uint64_t k = 0; k < 4; ++k)
        level.insert(0, lineInSet(set, k), false);
    // Line k=0 is LRU. Promote it once: now k=1 is LRU.
    const std::uint32_t way = level.slice(0).probe(lineInSet(set, 0));
    ASSERT_NE(way, level.slice(0).assoc());
    level.promoteByOne(0, set, way);
    level.insert(0, lineInSet(set, 9), false);
    EXPECT_TRUE(level.presentInGroup(0, lineInSet(set, 0)));
    EXPECT_FALSE(level.presentInGroup(0, lineInSet(set, 1)));
}

TEST(CacheLevelPolicy, InsertIntoSliceStaysInSlice)
{
    CacheLevelModel level(smallLevel(2));
    level.configure({{0, 1}});
    const auto out = level.insertIntoSlice(0, 1, 0x123, false);
    EXPECT_EQ(out.slice, 1);
    EXPECT_TRUE(level.slice(1).contains(0x123));
    EXPECT_FALSE(level.slice(0).contains(0x123));
}

} // namespace
} // namespace morphcache
