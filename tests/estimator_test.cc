/**
 * @file
 * Tests for the footprint-estimation refinements and the bus
 * occupancy model: reuse-conditional ACFV clearing, fill-pressure
 * churn signals, the split-transaction occupancy override, and the
 * queueing cap across core clock domains.
 */

#include <gtest/gtest.h>

#include "hierarchy/cache_level.hh"
#include "interconnect/segmented_bus.hh"

namespace morphcache {
namespace {

LevelParams
smallLevel(std::uint32_t slices = 2)
{
    LevelParams params;
    params.name = "L2";
    params.numSlices = slices;
    params.sliceGeom = CacheGeometry{16 * 1024, 4, 64}; // 256/64
    return params;
}

TEST(ReuseClearing, StreamEvictionsClearTheirBits)
{
    CacheLevelModel level(smallLevel());
    // Stream 16x the slice capacity sequentially: single-use lines.
    for (Addr a = 0; a < 4096; ++a)
        level.insert(0, a, false);
    // Only the resident window's few granules remain visible.
    EXPECT_LT(level.acfvs().utilization(std::vector<SliceId>{0}), 0.10);
}

TEST(ReuseClearing, ReusedLinesKeepBitsThroughChurn)
{
    CacheLevelModel level(smallLevel());
    // A reused set of 64 dispersed lines (one per granule)...
    auto touch_all = [&] {
        for (Addr granule = 0; granule < 64; ++granule) {
            const Addr line = granule * 64 + (granule % 64);
            if (!level.lookup(0, line, 0).hit)
                level.insert(0, line, false);
        }
    };
    touch_all();
    touch_all(); // mark reused
    const double before = level.acfvs().utilization(std::vector<SliceId>{0});
    EXPECT_GT(before, 0.35);

    // ...then heavy streaming churn through the same slice, placed
    // so its granules hash into the other half of the vector: the
    // reused granule bits must survive (their evictions are reused
    // evictions; the stream's unreused evictions only clear the
    // stream's own buckets).
    for (Addr a = 64 * 64; a < 2 * 64 * 64; ++a)
        level.insert(0, a, false);
    EXPECT_GT(level.acfvs().utilization(std::vector<SliceId>{0}), 0.25);
}

TEST(FillPressure, DistinguishesStreamerFromIdle)
{
    CacheLevelModel level(smallLevel());
    // Slice 0 streams hard; slice 1 stays nearly idle.
    for (Addr a = 0; a < 2048; ++a)
        level.insert(0, a, false);
    for (Addr a = 0; a < 16; ++a)
        level.insert(1, (1 << 22) + a * 64, false);

    EXPECT_GT(level.fillPressure({0}), 3.0); // 2048/256 = 8x
    EXPECT_LT(level.fillPressure({1}), 0.5);
    // Reset clears the pressure accounting.
    level.resetFootprints();
    EXPECT_EQ(level.fillPressure({0}), 0.0);
}

TEST(BusOccupancy, OverrideShrinksOccupancyNotLatency)
{
    SegmentedBus bus(4, 1);
    bus.configure({0, 0, 0, 0});
    // Latency stays the full 15-cycle transaction...
    EXPECT_EQ(bus.transact(0, 100), 15u);
    // ...but a back-to-back second transaction waits only 1 cycle.
    EXPECT_EQ(bus.transact(1, 100), 16u);
}

TEST(BusOccupancy, RequestOnlyTransactionIsCheaper)
{
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 0, 0});
    // Request-only (miss broadcast): 2 bus cycles = 10 CPU cycles.
    EXPECT_EQ(bus.transactRequest(0, 0), 10u);
}

TEST(BusOccupancy, QueueWaitCappedAtOneServiceRound)
{
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 0, 0});
    // A fast core races far ahead on its own clock...
    for (int i = 0; i < 50; ++i)
        bus.transact(0, 1000000);
    // ...a slow core's wait is bounded by one service round of the
    // segment (4 slices x 5-cycle occupancy), not by the clock gap.
    const Cycle latency = bus.transact(1, 0);
    EXPECT_LE(latency, 15u + 4u * 5u);
}

TEST(BusOccupancy, SegmentSizeBoundsTheCap)
{
    SegmentedBus bus(8, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 1, 1, 1, 1, 1, 1});
    for (int i = 0; i < 50; ++i)
        bus.transact(0, 1000000);
    // Slice 1 shares the 2-slice segment: cap = 2 x occupancy.
    EXPECT_LE(bus.transact(1, 0), 15u + 2u * 5u);
}

TEST(RemoteHitExtra, AddsFixedLatencyWithoutBus)
{
    LevelParams params = smallLevel();
    params.remoteCost = RemoteCost::Premium;
    CacheLevelModel level(params);
    level.insert(0, 0x123, false);
    level.configure({{0, 1}});
    const auto out = level.lookup(1, 0x123, 0);
    ASSERT_TRUE(out.hit);
    EXPECT_TRUE(out.remote);
    EXPECT_EQ(out.latency, 10u + 15u);
    EXPECT_EQ(level.bus().numTransactions(), 0u);
}

} // namespace
} // namespace morphcache
