/**
 * @file
 * Cells whose expected counts are worked out by hand, on the paths
 * the fingerprint matcher serves: under LRU, a private slice, a
 * contiguous k-slice group and a non-contiguous k-slice group.
 *
 *  - A cyclic sweep that fits the capacity misses only on its cold
 *    lines; a sweep one line per set too large misses every time.
 *  - Merged, k slices hold k times a slice's lines: the sweep too
 *    large for one slice misses only on its cold lines.
 *  - A line written by a core in another group costs one
 *    cache-to-cache transfer, then one invalidation per level.
 *
 * A remote hit's latency is pinned by
 * CacheLevel.MergedRemoteHitPays25Cycles.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hierarchy/cache_level.hh"
#include "hierarchy/hierarchy.hh"

namespace morphcache {
namespace {

constexpr std::uint32_t kSlices = 16;
constexpr std::uint64_t kSets = 16;
constexpr std::uint64_t kWays = 8;

/** The core that sweeps; every shape's group holds its slice. */
constexpr CoreId kCore = 5;

/**
 * One sharing group. gtest lists each cell with its parameter's
 * bytes, so the name is held inline and those bytes start with it; a
 * pointer's bytes would change from run to run.
 */
struct GroupShape
{
    char name[16];
    std::vector<SliceId> members;
};

/** A 16-slice LRU level: the shape's group, every other slice private. */
CacheLevelModel
levelWith(const GroupShape &shape)
{
    LevelParams params;
    params.numSlices = kSlices;
    params.sliceGeom = CacheGeometry{kSets * kWays * 64, kWays, 64};
    params.policy = ReplPolicy::LRU;
    CacheLevelModel level(params);
    Partition partition{shape.members};
    for (std::uint32_t s = 0; s < kSlices; ++s) {
        const auto id = static_cast<SliceId>(s);
        if (std::find(shape.members.begin(), shape.members.end(), id) ==
            shape.members.end())
            partition.push_back({id});
    }
    level.configure(partition);
    return level;
}

/**
 * Lines [0, lines) in order, `rounds` times, from kCore: a lookup,
 * then an insert on a miss. Line l falls in set l % kSets.
 */
void
sweep(CacheLevelModel &level, std::uint64_t lines, int rounds)
{
    for (int round = 0; round < rounds; ++round) {
        for (Addr line = 0; line < lines; ++line) {
            if (!level.lookup(kCore, line, 0).hit)
                level.insert(kCore, line, false);
        }
    }
}

class AnalyticCell : public ::testing::TestWithParam<GroupShape>
{
};

TEST_P(AnalyticCell, SweepThatFitsMissesOnlyCold)
{
    // k x kWays lines per set fill the group's ways exactly, so only
    // the first round misses. The core's own slice takes the first
    // kWays lines of each set (an insert prefers its invalid ways),
    // so each later round hits kSets x kWays lines locally and the
    // rest remotely.
    const GroupShape &shape = GetParam();
    const std::uint64_t k = shape.members.size();
    CacheLevelModel level = levelWith(shape);
    const std::uint64_t lines = k * kSets * kWays;
    sweep(level, lines, 3);
    EXPECT_EQ(level.stats().misses, lines);
    EXPECT_EQ(level.stats().localHits, 2 * kSets * kWays);
    EXPECT_EQ(level.stats().remoteHits, 2 * (k - 1) * kSets * kWays);
    EXPECT_EQ(level.stats().evictions, 0u);
}

TEST_P(AnalyticCell, SweepOneLinePerSetTooLargeAlwaysMisses)
{
    // k x kWays + 1 lines per set, cycled: under LRU the line a miss
    // evicts is always the one the sweep needs next.
    const GroupShape &shape = GetParam();
    const std::uint64_t k = shape.members.size();
    CacheLevelModel level = levelWith(shape);
    const std::uint64_t lines = (k * kWays + 1) * kSets;
    sweep(level, lines, 3);
    EXPECT_EQ(level.stats().misses, 3 * lines);
    EXPECT_EQ(level.stats().localHits + level.stats().remoteHits, 0u);
    EXPECT_EQ(level.stats().evictions, 3 * lines - k * kSets * kWays);
}

TEST_P(AnalyticCell, MergedGroupHoldsWhatOneSliceCannot)
{
    // kWays + 1 lines per set overflow one slice; a group of k >= 2
    // slices holds them, so only the first round misses.
    const GroupShape &shape = GetParam();
    CacheLevelModel level = levelWith(shape);
    const std::uint64_t lines = (kWays + 1) * kSets;
    sweep(level, lines, 3);
    const std::uint64_t misses =
        shape.members.size() == 1 ? 3 * lines : lines;
    EXPECT_EQ(level.stats().misses, misses);
}

/** A topology whose L2 and L3 groups are both `groups`. */
Topology
sameAtBothLevels(const Partition &groups)
{
    Topology topology;
    topology.numCores = 8;
    topology.l2 = groups;
    topology.l3 = groups;
    return topology;
}

struct CoherenceShape
{
    const char *name;
    Partition groups;
    /** A core in another group than core 0's. */
    CoreId other;
};

class AnalyticCoherence : public ::testing::TestWithParam<CoherenceShape>
{
};

TEST_P(AnalyticCoherence, RemoteWriterCostsOneTransferThenOneInvalidation)
{
    const CoherenceShape &shape = GetParam();
    HierarchyParams params = HierarchyParams::defaultParams(8);
    params.coherence = true;
    Hierarchy h(params);
    h.reconfigure(sameAtBothLevels(shape.groups));
    const auto access = [&](CoreId core, AccessType type) {
        return h.access(MemAccess{core, 0x4000, type}, 0).servedBy;
    };

    // Core 0 writes the line in from memory. The other core's read
    // is one cache-to-cache transfer from core 0's group; its write
    // then hits its L1 and invalidates the one copy outside its
    // group at each of L2 and L3, and core 0's L1 copy.
    EXPECT_EQ(access(0, AccessType::Write), ServedBy::Memory);
    EXPECT_EQ(access(shape.other, AccessType::Read), ServedBy::OtherGroup);
    EXPECT_EQ(h.coreStats(shape.other).otherGroupTransfers, 1u);
    EXPECT_EQ(h.l2().stats().coherenceInvalidations, 0u);
    EXPECT_EQ(h.l3().stats().coherenceInvalidations, 0u);
    EXPECT_EQ(access(shape.other, AccessType::Write), ServedBy::L1);
    EXPECT_EQ(h.l2().stats().coherenceInvalidations, 1u);
    EXPECT_EQ(h.l3().stats().coherenceInvalidations, 1u);
    EXPECT_FALSE(h.l1(0).contains(0x4000 >> 6));

    // Core 0 now finds it only in the other group: one more transfer.
    EXPECT_EQ(access(0, AccessType::Read), ServedBy::OtherGroup);
    EXPECT_EQ(h.coreStats(0).otherGroupTransfers, 1u);
    EXPECT_EQ(h.coreStats(0).memAccesses, 1u);
    EXPECT_EQ(h.coreStats(shape.other).memAccesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Groups, AnalyticCell,
    ::testing::Values(GroupShape{"private", {5}},
                      GroupShape{"contiguous4", {4, 5, 6, 7}},
                      GroupShape{"noncontiguous4", {1, 5, 9, 13}}),
    [](const ::testing::TestParamInfo<GroupShape> &shape) {
        return std::string(shape.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    Groups, AnalyticCoherence,
    ::testing::Values(
        CoherenceShape{"private", allPrivate(8), 1},
        CoherenceShape{"contiguous4", {{0, 1, 2, 3}, {4, 5, 6, 7}}, 4},
        CoherenceShape{"noncontiguous4", {{0, 2, 4, 6}, {1, 3, 5, 7}}, 1}),
    [](const ::testing::TestParamInfo<CoherenceShape> &shape) {
        return std::string(shape.param.name);
    });

} // namespace
} // namespace morphcache
