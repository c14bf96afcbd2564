/**
 * @file
 * Unit tests for the segmented-bus interconnect: round-robin
 * arbiters, the hierarchical arbiter tree with segmentation, the
 * queueing model, and the Table 2 area/delay model.
 */

#include <gtest/gtest.h>

#include "interconnect/arbiter.hh"
#include "interconnect/delay_model.hh"
#include "interconnect/segmented_bus.hh"

namespace morphcache {
namespace {

TEST(RoundRobinArbiter, SingleRequestGranted)
{
    RoundRobinArbiter2 arb;
    auto g = arb.arbitrate(true, false, true, false);
    EXPECT_TRUE(g.gnt0);
    EXPECT_FALSE(g.gnt1);
    g = arb.arbitrate(false, true, true, false);
    EXPECT_FALSE(g.gnt0);
    EXPECT_TRUE(g.gnt1);
}

TEST(RoundRobinArbiter, AlternatesUnderContention)
{
    RoundRobinArbiter2 arb;
    bool last = false;
    for (int i = 0; i < 10; ++i) {
        const auto g = arb.arbitrate(true, true, true, false);
        EXPECT_NE(g.gnt0, g.gnt1); // exactly one grant
        if (i > 0) {
            EXPECT_NE(g.gnt1, last); // strict alternation
        }
        last = g.gnt1;
    }
}

TEST(RoundRobinArbiter, NoGrantWithoutParentGrant)
{
    RoundRobinArbiter2 arb;
    const auto g = arb.arbitrate(true, true, false, true);
    EXPECT_FALSE(g.gnt0);
    EXPECT_FALSE(g.gnt1);
    EXPECT_TRUE(g.reqOut); // request still forwarded
}

TEST(RoundRobinArbiter, ReqOutOnlyWhenForwarding)
{
    RoundRobinArbiter2 arb;
    EXPECT_FALSE(arb.arbitrate(true, false, true, false).reqOut);
    EXPECT_TRUE(arb.arbitrate(true, false, false, true).reqOut);
    EXPECT_FALSE(arb.arbitrate(false, false, false, true).reqOut);
}

TEST(ArbiterTree, FullyShared_OneGrantPerCycle)
{
    ArbiterTree tree(8);
    tree.configure(std::vector<std::uint32_t>(8, 0));
    std::vector<bool> req(8, true);
    for (int cycle = 0; cycle < 16; ++cycle) {
        const auto grants = tree.arbitrate(req);
        int count = 0;
        for (bool g : grants)
            count += g;
        EXPECT_EQ(count, 1);
    }
}

TEST(ArbiterTree, FullyShared_FairUnderSaturation)
{
    ArbiterTree tree(8);
    tree.configure(std::vector<std::uint32_t>(8, 0));
    std::vector<int> wins(8, 0);
    std::vector<bool> req(8, true);
    for (int cycle = 0; cycle < 800; ++cycle) {
        const auto grants = tree.arbitrate(req);
        for (int i = 0; i < 8; ++i)
            wins[i] += grants[i];
    }
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(wins[i], 100) << "slice " << i;
}

TEST(ArbiterTree, SegmentsGrantInParallel)
{
    // Figure 7's (4,2,2) formation: leaves 0-3, 4-5, 6-7.
    ArbiterTree tree(8);
    tree.configure({0, 0, 0, 0, 1, 1, 2, 2});
    std::vector<bool> req(8, true);
    const auto grants = tree.arbitrate(req);
    int count = 0;
    for (bool g : grants)
        count += g;
    EXPECT_EQ(count, 3); // one grant per segment
}

TEST(ArbiterTree, PrivateSegmentsAllGranted)
{
    ArbiterTree tree(8);
    tree.configure({0, 1, 2, 3, 4, 5, 6, 7});
    std::vector<bool> req{true, false, true, false,
                          true, false, true, false};
    const auto grants = tree.arbitrate(req);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(grants[i], req[i]);
}

TEST(ArbiterTree, NoRequestsNoGrants)
{
    ArbiterTree tree(16);
    tree.configure(std::vector<std::uint32_t>(16, 0));
    const auto grants = tree.arbitrate(std::vector<bool>(16, false));
    for (bool g : grants)
        EXPECT_FALSE(g);
}

TEST(ArbiterTree, GrantGoesToARequester)
{
    ArbiterTree tree(8);
    tree.configure(std::vector<std::uint32_t>(8, 0));
    std::vector<bool> req(8, false);
    req[5] = true;
    for (int cycle = 0; cycle < 4; ++cycle) {
        const auto grants = tree.arbitrate(req);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(grants[i], i == 5);
    }
}

TEST(SegmentedBus, UncontendedLatencyIs15Cycles)
{
    SegmentedBus bus(16, cpuCyclesPerBusCycle);
    bus.configure(std::vector<std::uint32_t>(16, 0));
    // 3 bus cycles x 5 CPU cycles = the paper's 15-cycle overhead.
    EXPECT_EQ(bus.transact(0, 0), 15u);
}

TEST(SegmentedBus, ShortPipelinedTxnCyclesDoNotWrap)
{
    // Both latencies derive from the one 3-cycle transaction every
    // bus reads; a request-only transaction drops its data phase
    // and keeps the other two bus cycles.
    EXPECT_EQ(busTxnCpuCycles, 15u);
    EXPECT_EQ(busRequestCpuCycles, 10u);
}

TEST(SegmentedBus, ContentionQueues)
{
    // Split-transaction (default): the second requester waits for
    // the first one's data phase (1 bus cycle = 5 CPU cycles).
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 0, 0});
    EXPECT_EQ(bus.transact(0, 100), 15u);
    EXPECT_EQ(bus.transact(1, 100), 20u);
    EXPECT_EQ(bus.queueingCycles(), 5u);
}

TEST(SegmentedBus, SerializedContentionQueues)
{
    SegmentedBus bus(4, busTxnCpuCycles);
    bus.configure({0, 0, 0, 0});
    EXPECT_EQ(bus.transact(0, 100), 15u);
    // Whole transactions serialize in the conservative model.
    EXPECT_EQ(bus.transact(1, 100), 30u);
    EXPECT_EQ(bus.queueingCycles(), 15u);
}

TEST(SegmentedBus, SegmentsAreIndependent)
{
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 1, 1});
    EXPECT_EQ(bus.transact(0, 0), 15u);
    EXPECT_EQ(bus.transact(2, 0), 15u); // different segment: no wait
    EXPECT_EQ(bus.queueingCycles(), 0u);
}

TEST(SegmentedBus, IdleGapClearsQueue)
{
    SegmentedBus bus(2, cpuCyclesPerBusCycle);
    bus.configure({0, 0});
    bus.transact(0, 0);
    EXPECT_EQ(bus.transact(1, 1000), 15u);
}

TEST(SegmentedBus, ReconfigureClearsOccupancy)
{
    // Regression for the stale-occupancy bug: configure() promises
    // that reconfiguration drains in-flight transactions, so the
    // first post-reconfig transaction must wait zero cycles even if
    // the old segment was saturated.
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 0, 0});
    for (SliceId s = 0; s < 4; ++s)
        bus.transact(s, 0);
    EXPECT_GT(bus.queueingCycles(), 0u);
    const std::uint64_t queued = bus.queueingCycles();

    bus.configure({0, 1, 2, 3});
    // Uncontended latency, no phantom queueing carried across the
    // reconfiguration.
    EXPECT_EQ(bus.transact(0, 0), 15u);
    EXPECT_EQ(bus.queueingCycles(), queued);
}

TEST(SegmentedBus, ReconfigureClearsOccupancyUnderRemapping)
{
    // Occupancy accumulated under the *old* representative mapping
    // must not be re-read under the *new* mapping after a
    // merge/split reshapes which slice fronts each segment.
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({0, 0, 1, 1});
    for (int r = 0; r < 3; ++r) {
        bus.transact(0, 0); // saturate segment of slices {0,1}
        bus.transact(2, 0); // saturate segment of slices {2,3}
    }
    bus.configure({0, 0, 0, 0}); // merge everything
    EXPECT_EQ(bus.transact(3, 0), 15u);
    bus.configure({0, 1, 1, 1}); // asymmetric split
    EXPECT_EQ(bus.transact(1, 0), 15u);
    EXPECT_EQ(bus.transact(0, 0), 15u);
}

TEST(SegmentedBus, NormalizationUsesFirstOccurrence)
{
    // Arbitrary (sparse, unordered) group ids normalize to dense
    // first-occurrence representatives.
    SegmentedBus bus(5, cpuCyclesPerBusCycle);
    bus.configure({7, 7, 3, 3, 9});
    EXPECT_EQ(bus.groupOf(0), 0u);
    EXPECT_EQ(bus.groupOf(1), 0u);
    EXPECT_EQ(bus.groupOf(2), 2u);
    EXPECT_EQ(bus.groupOf(3), 2u);
    EXPECT_EQ(bus.groupOf(4), 4u);
    // Contention within a group, independence across groups.
    EXPECT_EQ(bus.transact(0, 0), 15u);
    EXPECT_EQ(bus.transact(1, 0), 20u);
    EXPECT_EQ(bus.transact(2, 0), 15u);
    EXPECT_EQ(bus.transact(4, 0), 15u);
}

TEST(SegmentedBus, NormalizationHandlesInterleavedGroups)
{
    SegmentedBus bus(4, cpuCyclesPerBusCycle);
    bus.configure({5, 8, 5, 8});
    EXPECT_EQ(bus.groupOf(0), 0u);
    EXPECT_EQ(bus.groupOf(1), 1u);
    EXPECT_EQ(bus.groupOf(2), 0u);
    EXPECT_EQ(bus.groupOf(3), 1u);
    EXPECT_EQ(bus.transact(0, 0), 15u);
    EXPECT_EQ(bus.transact(2, 0), 20u); // same segment as slice 0
    EXPECT_EQ(bus.transact(1, 0), 15u); // other segment unaffected
}

TEST(DelayModel, Table2AreaFigures)
{
    const ArbiterDelayModel model;
    const auto l2 = model.l2Tree();
    const auto l3 = model.l3Tree();
    EXPECT_EQ(l2.numArbiters, 7u);
    EXPECT_EQ(l3.numArbiters, 15u);
    // Paper: 160.5 um^2 per side (L2), 343.9 um^2 (L3).
    EXPECT_NEAR(l2.totalAreaUm2, 160.5, 1.0);
    EXPECT_NEAR(l3.totalAreaUm2, 343.9, 1.0);
}

TEST(DelayModel, Table2DelayFigures)
{
    const ArbiterDelayModel model;
    const auto l2 = model.l2Tree();
    const auto l3 = model.l3Tree();
    // Paper: L2 request 0.31 wire + 0.38 logic; L3 0.4 + 0.49.
    EXPECT_NEAR(l2.requestWireNs, 0.31, 0.04);
    EXPECT_NEAR(l2.requestLogicNs, 0.38, 0.02);
    EXPECT_NEAR(l3.requestWireNs, 0.40, 0.02);
    EXPECT_NEAR(l3.requestLogicNs, 0.49, 0.01);
    // Worst path ~0.89 ns -> ~1.12 GHz maximum arbiter frequency.
    EXPECT_NEAR(l3.worstPathNs(), 0.89, 0.02);
    EXPECT_NEAR(l3.maxFrequencyGhz(), 1.12, 0.03);
}

TEST(DelayModel, TransactionOverheads)
{
    const ArbiterDelayModel model;
    const auto txn = model.transaction();
    EXPECT_EQ(txn.busCycles, 3u);
    EXPECT_EQ(txn.cpuCycles, 15u);
    EXPECT_EQ(txn.cpuCyclesPipelined, 10u);
}

} // namespace
} // namespace morphcache
