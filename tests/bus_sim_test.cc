/**
 * @file
 * Tests for the cycle-level segmented-bus simulator, including its
 * agreement with the fast queueing model under uncontended load.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "interconnect/bus_sim.hh"
#include "interconnect/segmented_bus.hh"

namespace morphcache {
namespace {

/**
 * Regression for a latent wrap: a BusCompletion whose timestamps
 * are inconsistent (e.g. rebuilt across a checkpoint boundary)
 * must report zero latency, not a ~2^64-cycle unsigned wrap.
 */
TEST(BusSim, CompletionLatencySaturatesAtZero)
{
    BusCompletion c;
    c.requestedAt = 100;
    c.completedAt = 40;
    EXPECT_EQ(c.latency(), 0u);
    c.completedAt = 100;
    EXPECT_EQ(c.latency(), 0u);
    c.completedAt = 115;
    EXPECT_EQ(c.latency(), 15u);
}

TEST(BusSim, SingleTransactionLatency)
{
    SegmentedBusSim sim(4);
    sim.configure({0, 0, 0, 0});
    sim.request(0, 0);
    const auto done = sim.advanceTo(100);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].slice, 0);
    // Granted at the first bus edge, occupies 3 bus cycles of
    // 5 CPU cycles each.
    EXPECT_EQ(done[0].latency(), 15u);
}

TEST(BusSim, BackToBackSerializesWithinSegment)
{
    SegmentedBusSim sim(4);
    sim.configure({0, 0, 0, 0});
    sim.request(0, 0);
    sim.request(1, 0);
    const auto done = sim.advanceTo(200);
    ASSERT_EQ(done.size(), 2u);
    // The second transaction waits for the first's three bus
    // cycles before being granted.
    EXPECT_EQ(done[0].latency(), 15u);
    EXPECT_EQ(done[1].latency(), 30u);
}

TEST(BusSim, SegmentsRunInParallel)
{
    SegmentedBusSim sim(4);
    sim.configure({0, 0, 1, 1});
    sim.request(0, 0);
    sim.request(2, 0);
    const auto done = sim.advanceTo(100);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].latency(), 15u);
    EXPECT_EQ(done[1].latency(), 15u);
}

TEST(BusSim, RoundRobinFairUnderSaturation)
{
    SegmentedBusSim sim(8);
    sim.configure(std::vector<std::uint32_t>(8, 0));
    // Keep every slice's queue non-empty for a long interval.
    for (int i = 0; i < 100; ++i) {
        for (SliceId s = 0; s < 8; ++s)
            sim.request(s, 0);
    }
    sim.advanceTo(100 * 8 * 15 + 1000);
    const auto &per = sim.perSliceCompleted();
    for (SliceId s = 0; s < 8; ++s)
        EXPECT_EQ(per[s], 100u) << "slice " << s;
}

TEST(BusSim, ThroughputIsOneTxnPerThreeBusCycles)
{
    SegmentedBusSim sim(2);
    sim.configure({0, 0});
    for (int i = 0; i < 50; ++i)
        sim.request(0, 0);
    // 50 transactions back to back: 50 x 3 bus cycles x 5 CPU.
    const auto done = sim.advanceTo(50 * 15 + 20);
    EXPECT_EQ(done.size(), 50u);
    EXPECT_EQ(done.back().completedAt, 50u * 15u);
}

TEST(BusSim, AgreesWithQueueingModelWhenUncontended)
{
    // Sparse Poisson-ish arrivals: both models must report the
    // bare 15-cycle transaction latency.
    SegmentedBusSim sim(4);
    sim.configure({0, 0, 0, 0});
    SegmentedBus model(4, cpuCyclesPerBusCycle);
    model.configure({0, 0, 0, 0});

    Rng rng(3);
    Cycle t = 0;
    double model_total = 0.0;
    int n = 200;
    for (int i = 0; i < n; ++i) {
        t += 100 + rng.below(100); // far apart: no contention
        const auto slice = static_cast<SliceId>(rng.below(4));
        sim.request(slice, t);
        model_total += static_cast<double>(model.transact(slice, t));
    }
    sim.advanceTo(t + 1000);
    ASSERT_EQ(sim.numCompleted(), static_cast<std::uint64_t>(n));
    // Cycle-level latencies include alignment to bus edges (up to
    // +5 cycles); the queueing model has none.
    EXPECT_NEAR(sim.averageLatency(), model_total / n, 5.0);
}

TEST(BusSim, ReconfigureIsolatesSegmentsAfterwards)
{
    SegmentedBusSim sim(8);
    sim.configure(std::vector<std::uint32_t>(8, 0));
    sim.request(0, 0);
    sim.advanceTo(100);
    EXPECT_EQ(sim.numCompleted(), 1u);

    sim.configure({0, 0, 0, 0, 1, 1, 1, 1});
    sim.request(1, 200);
    sim.request(5, 200);
    const auto done = sim.advanceTo(400);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].latency(), done[1].latency());
}

} // namespace
} // namespace morphcache
