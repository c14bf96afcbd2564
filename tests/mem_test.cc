/**
 * @file
 * Unit tests for the cache substrate: geometry, slices, and
 * replacement policies.
 */

#include <gtest/gtest.h>

#include "mem/geometry.hh"
#include "mem/replacement.hh"
#include "mem/slice.hh"

namespace morphcache {
namespace {

CacheGeometry
l2Geom()
{
    return CacheGeometry{256 * 1024, 8, 64}; // Table 3 L2 slice
}

TEST(Geometry, Table3Shapes)
{
    const CacheGeometry l2 = l2Geom();
    EXPECT_TRUE(l2.valid());
    EXPECT_EQ(l2.numLines(), 4096u);
    EXPECT_EQ(l2.numSets(), 512u);

    const CacheGeometry l3{1024 * 1024, 16, 64};
    EXPECT_TRUE(l3.valid());
    EXPECT_EQ(l3.numLines(), 16384u);
    EXPECT_EQ(l3.numSets(), 1024u);
}

TEST(Geometry, AddressMapping)
{
    const CacheGeometry geom = l2Geom();
    const Addr byte_addr = 0x12345678;
    const Addr line = geom.lineAddr(byte_addr);
    EXPECT_EQ(line, byte_addr >> 6);
    EXPECT_EQ(geom.setIndex(line), line % 512);
    EXPECT_EQ(geom.tag(line), line / 512);
}

TEST(Geometry, InvalidShapesRejected)
{
    EXPECT_FALSE((CacheGeometry{0, 8, 64}).valid());
    EXPECT_FALSE((CacheGeometry{256 * 1024, 0, 64}).valid());
    EXPECT_FALSE((CacheGeometry{100, 8, 64}).valid()); // not divisible
}

TEST(PlruTree, VictimAvoidsTouched)
{
    const PlruRule rule(8);
    std::uint64_t bits = 0;
    // Touch everything except way 5 in some order.
    for (std::uint32_t way : {0, 1, 2, 3, 4, 6, 7, 0, 1})
        bits = rule.touch(bits, way);
    // PLRU is approximate, but immediately after touching a way,
    // the victim must never be that way.
    for (std::uint32_t way = 0; way < 8; ++way) {
        bits = rule.touch(bits, way);
        EXPECT_NE(rule.victim(bits), way);
    }
}

TEST(PlruTree, SingleWay)
{
    const PlruRule rule(1);
    const std::uint64_t bits = rule.touch(0, 0);
    EXPECT_EQ(rule.victim(bits), 0u);
}

TEST(PlruTree, TwoWayAlternates)
{
    const PlruRule rule(2);
    std::uint64_t bits = rule.touch(0, 0);
    EXPECT_EQ(rule.victim(bits), 1u);
    bits = rule.touch(bits, 1);
    EXPECT_EQ(rule.victim(bits), 0u);
}

TEST(PlruTree, SixtyFourWaysReachNode63)
{
    // Node 63 is the last internal node: ways 62 and 63 hang off it,
    // and its bit alone picks between them.
    const PlruRule rule(64);
    const std::uint64_t right = ~std::uint64_t{0};
    EXPECT_EQ(rule.victim(right), 63u);
    EXPECT_EQ(rule.victim(right & ~(std::uint64_t{1} << 63)), 62u);
    EXPECT_EQ(rule.touch(0, 62) >> 63, 1u); // victim right of 62
    EXPECT_EQ(rule.touch(right, 63) >> 63, 0u);
}

TEST(Slice, ProbeMissOnEmpty)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    EXPECT_EQ(slice.probe(0x1000), slice.assoc());
    EXPECT_EQ(slice.validLineCount(), 0u);
}

TEST(Slice, FillThenHit)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    const Addr line = 0xabcd;
    const std::uint64_t set = slice.setIndex(line);
    const Eviction ev = slice.fill(set, 0, line, false, 1);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(slice.probe(line), 0u);
    EXPECT_EQ(slice.validLineCount(), 1u);
}

TEST(Slice, LruEvictsOldest)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    const std::uint64_t set = 7;
    const std::uint64_t sets = l2Geom().numSets();
    // Fill all 8 ways of one set with increasing stamps.
    for (std::uint32_t i = 0; i < 8; ++i) {
        const Addr line = set + sets * (i + 1); // same set index
        slice.fill(set, slice.victimWay(set), line, false, i + 1);
    }
    // Touch way 0's line to make it MRU; victim must not be way 0.
    slice.touch(set, 0, 100);
    const std::uint32_t victim = slice.victimWay(set);
    EXPECT_EQ(victim, 1u); // stamp 2 is now the oldest
}

TEST(Slice, FillReturnsEvictionWithDirtyFlag)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    const std::uint64_t set = 0;
    const std::uint64_t sets = l2Geom().numSets();
    for (std::uint32_t i = 0; i < 8; ++i)
        slice.fill(set, i, sets * (i + 1), /*dirty=*/i == 3, i + 1);
    // Evict way 3 explicitly.
    const Eviction ev = slice.fill(set, 3, sets * 100, false, 50);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.lineAddr, sets * 4);
}

TEST(Slice, InvalidateRemovesLine)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    const Addr line = 0x77;
    slice.fill(slice.setIndex(line), 2, line, true, 1);
    const Eviction ev = slice.invalidate(line);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_FALSE(slice.contains(line));
    // Second invalidate is a no-op.
    EXPECT_FALSE(slice.invalidate(line).valid);
}

TEST(Slice, VictimPrefersInvalidWays)
{
    SliceStore store(1, l2Geom());
    const CacheSlice slice = store.slice(0);
    slice.fill(0, 0, 0, false, 100);
    slice.fill(0, 1, l2Geom().numSets(), false, 1);
    // Ways 2.. are invalid; victim must be one of them, not the
    // stamp-1 line.
    EXPECT_GE(slice.victimWay(0), 2u);
}

TEST(Slice, PlruPolicyVictims)
{
    SliceStore store(1, l2Geom(), ReplPolicy::TreePLRU);
    const CacheSlice slice = store.slice(0);
    const std::uint64_t sets = l2Geom().numSets();
    for (std::uint32_t i = 0; i < 8; ++i)
        slice.fill(0, i, sets * (i + 1), false, 1);
    // After touching a way, it must not be the victim.
    for (std::uint32_t way = 0; way < 8; ++way) {
        slice.touch(0, way, 1);
        EXPECT_NE(slice.victimWay(0), way);
    }
}

/** Property sweep: a slice never exceeds its capacity. */
class SliceFillSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SliceFillSweep, CapacityNeverExceeded)
{
    const std::uint32_t assoc = GetParam();
    const CacheGeometry geom{64 * 1024, assoc, 64};
    ASSERT_TRUE(geom.valid());
    SliceStore store(1, geom);
    const CacheSlice slice = store.slice(0);
    for (Addr line = 0; line < 4 * geom.numLines(); ++line) {
        const std::uint64_t set = geom.setIndex(line);
        slice.fill(set, slice.victimWay(set), line, false, line + 1);
        ASSERT_LE(slice.validLineCount(), geom.numLines());
    }
    EXPECT_EQ(slice.validLineCount(), geom.numLines());
}

INSTANTIATE_TEST_SUITE_P(Assocs, SliceFillSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

} // namespace
} // namespace morphcache
