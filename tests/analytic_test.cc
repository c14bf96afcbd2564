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
 * And on a private 4-way tree-PLRU slice, with the victims read off
 * the tree bits: a sweep that fits misses only on its cold lines,
 * and a short fill-and-touch sequence evicts the way the tree names
 * (not the one exact LRU would). On a merged pair of 4-way slices the
 * group's rotor picks the victim slice in turn, and configuring the
 * same partition again restarts it.
 *
 * A remote hit's latency is pinned by
 * CacheLevel.MergedRemoteHitPays25Cycles.
 */

#include <algorithm>
#include <cstdint>
#include <ostream>
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

/** One sharing group. */
struct GroupShape
{
    const char *name;
    std::vector<SliceId> members;
};

/** Slices as `{a, b, ...}`. */
void
printSlices(const std::vector<SliceId> &slices, std::ostream *os)
{
    *os << '{';
    for (std::size_t i = 0; i < slices.size(); ++i)
        *os << (i == 0 ? "" : ", ") << slices[i];
    *os << '}';
}

/**
 * gtest names each cell with its printed parameter; printing the
 * members keeps the name the same on every build, where the default
 * byte dump would show the vector's heap address.
 */
void
PrintTo(const GroupShape &shape, std::ostream *os)
{
    printSlices(shape.members, os);
}

/**
 * A 16-slice level of `kWays`-way slices under `policy`: the shape's
 * group, every other slice private.
 */
CacheLevelModel
levelWith(const GroupShape &shape, std::uint64_t ways = kWays,
          ReplPolicy policy = ReplPolicy::LRU)
{
    LevelParams params;
    params.numSlices = kSlices;
    params.sliceGeom = CacheGeometry{kSets * ways * 64,
                                     static_cast<std::uint32_t>(ways), 64};
    params.policy = policy;
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

/** The groups and the other core, as `{{0, 1}, {2, 3}} other 2`. */
void
PrintTo(const CoherenceShape &shape, std::ostream *os)
{
    *os << '{';
    for (std::size_t g = 0; g < shape.groups.size(); ++g) {
        *os << (g == 0 ? "" : ", ");
        printSlices(shape.groups[g], os);
    }
    *os << "} other " << shape.other;
}

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

// ---------------------------------------------------------------
// Tree-PLRU on a private 4-way slice. Its tree has three direction
// bits: b1 at the root (ways 0-1 left, 2-3 right), b2 over ways 0
// and 1, b3 over ways 2 and 3. A 0 bit sends the victim left, a 1
// right, and touching a way points every bit on its path away from
// it: way 0 sets b1 and b2, way 1 sets b1 and clears b2, way 2
// clears b1 and sets b3, way 3 clears b1 and b3.

constexpr std::uint64_t kPlruWays = 4;

/** kCore's own slice, private, 4-way tree-PLRU. */
CacheLevelModel
plruLevel()
{
    return levelWith(GroupShape{"private", {kCore}}, kPlruWays,
                     ReplPolicy::TreePLRU);
}

TEST(AnalyticPlru, SweepThatFitsMissesOnlyCold)
{
    // kSets x 4 lines fill every way once: an insert takes the
    // lowest invalid way before asking the tree, so the first round
    // misses on each line and evicts nothing, and the next two hit
    // all of them in the core's own slice.
    CacheLevelModel level = plruLevel();
    const std::uint64_t lines = kSets * kPlruWays;
    sweep(level, lines, 3);
    EXPECT_EQ(level.stats().misses, lines);
    EXPECT_EQ(level.stats().localHits, 2 * lines);
    EXPECT_EQ(level.stats().remoteHits, 0u);
    EXPECT_EQ(level.stats().evictions, 0u);
}

TEST(AnalyticPlru, FillAndTouchEvictsTheTreeVictim)
{
    // Lines a, b, c, d, e, f of set 3 (line = 3 + k x kSets).
    CacheLevelModel level = plruLevel();
    const auto line = [](std::uint64_t k) { return 3 + k * kSets; };
    const auto lookup = [&](std::uint64_t k) {
        return level.lookup(kCore, line(k), 0).hit;
    };
    const auto insert = [&](std::uint64_t k) {
        return level.insert(kCore, line(k), false);
    };

    // a..d fill ways 0..3 in order (invalid ways first). From all
    // zeros: a sets b1 b2 (110), b keeps b1 and clears b2 (100), c
    // clears b1 and sets b3 (001), d clears b3 (000).
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_FALSE(insert(k).evicted.valid);
    EXPECT_EQ(level.slice(kCore).probe(line(2)), 2u);

    // A hit on a (way 0) sets b1 and b2: b1 b2 b3 = 1 1 0. The root
    // points right and b3 left, so the victim is way 2, c. Exact LRU
    // would evict b, the least recently used line.
    EXPECT_TRUE(lookup(0));
    const InsertOutcome e = insert(4);
    EXPECT_EQ(e.slice, kCore);
    ASSERT_TRUE(e.evicted.valid);
    EXPECT_EQ(e.evicted.lineAddr, line(2));
    EXPECT_EQ(level.slice(kCore).probe(line(4)), 2u);

    // e in way 2 clears b1 and sets b3: 0 1 1. Left, then right: the
    // victim is way 1, b.
    const InsertOutcome f = insert(5);
    ASSERT_TRUE(f.evicted.valid);
    EXPECT_EQ(f.evicted.lineAddr, line(1));
    EXPECT_EQ(level.slice(kCore).probe(line(5)), 1u);

    // a, d, e and f stay; b and c are gone.
    EXPECT_TRUE(lookup(0));
    EXPECT_TRUE(lookup(3));
    EXPECT_TRUE(lookup(4));
    EXPECT_TRUE(lookup(5));
    EXPECT_FALSE(lookup(1));
    EXPECT_FALSE(lookup(2));
    EXPECT_EQ(level.stats().evictions, 2u);
}

TEST(AnalyticPlru, MergedGroupRotatesTheVictimSlice)
{
    // kCore's slice 5 merged with slice 4. With no invalid way left,
    // an insert asks the group's rotor for the victim slice (member
    // rotor % 2, from 0 after configure, counting every such insert
    // in the group) and that slice's tree for the way.
    CacheLevelModel level = levelWith(GroupShape{"merged45", {4, 5}},
                                      kPlruWays, ReplPolicy::TreePLRU);
    const auto line = [](std::uint64_t k) { return 3 + k * kSets; };
    const auto insert = [&](std::uint64_t k) {
        return level.insert(kCore, line(k), false);
    };

    // Lines 0..3 fill kCore's own invalid ways 0..3 first, then 4..7
    // slice 4's. Each slice's tree ends at b1 b2 b3 = 0 0 0 (see
    // FillAndTouchEvictsTheTreeVictim), so each victim is way 0.
    for (std::uint64_t k = 0; k < 8; ++k) {
        const InsertOutcome out = insert(k);
        EXPECT_FALSE(out.evicted.valid);
        EXPECT_EQ(out.slice, k < 4 ? SliceId{kCore} : SliceId{4});
        EXPECT_EQ(level.slice(out.slice).probe(line(k)), k % 4);
    }

    // Line 8: rotor 0 picks slice 4, whose tree (000) names way 0,
    // line 4. The fill sets b1 and b2: 1 1 0.
    const InsertOutcome a = insert(8);
    EXPECT_EQ(a.slice, SliceId{4});
    ASSERT_TRUE(a.evicted.valid);
    EXPECT_EQ(a.evicted.lineAddr, line(4));
    EXPECT_EQ(level.slice(4).probe(line(8)), 0u);

    // Line 9: rotor 1 picks slice 5, also at 000: way 0, line 0. Its
    // tree becomes 1 1 0 too.
    const InsertOutcome b = insert(9);
    EXPECT_EQ(b.slice, SliceId{5});
    ASSERT_TRUE(b.evicted.valid);
    EXPECT_EQ(b.evicted.lineAddr, line(0));
    EXPECT_EQ(level.slice(5).probe(line(9)), 0u);

    // Line 10: rotor 2 picks slice 4 again. At 1 1 0 the root points
    // right and b3 left: way 2, line 6. The fill clears b1 and sets
    // b3: 0 1 1.
    const InsertOutcome c = insert(10);
    EXPECT_EQ(c.slice, SliceId{4});
    ASSERT_TRUE(c.evicted.valid);
    EXPECT_EQ(c.evicted.lineAddr, line(6));
    EXPECT_EQ(level.slice(4).probe(line(10)), 2u);

    // Configuring the same partition again resets the rotor to 0, so
    // line 11 goes to slice 4 once more: at 0 1 1 the root points left
    // and b2 right, way 1, line 5. A rotor that had kept counting (3)
    // would have picked slice 5, whose 1 1 0 names way 2, line 2.
    const Partition same = level.partition();
    level.configure(same);
    const InsertOutcome d = insert(11);
    EXPECT_EQ(d.slice, SliceId{4});
    ASSERT_TRUE(d.evicted.valid);
    EXPECT_EQ(d.evicted.lineAddr, line(5));
    EXPECT_EQ(level.slice(4).probe(line(11)), 1u);
    EXPECT_EQ(level.slice(5).probe(line(2)), 2u);
    EXPECT_EQ(level.stats().evictions, 4u);
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
