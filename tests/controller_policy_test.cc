/**
 * @file
 * Tests for the controller's policy refinements: the split
 * hysteresis, the churn guard, the lift-based overlap statistic,
 * and the condition-(ii) gating.
 */

#include <gtest/gtest.h>

#include "morph/controller.hh"

namespace morphcache {
namespace {

HierarchyParams
smallParams(std::uint32_t cores = 4, bool coherence = false)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{1024, 2, 64};
    // Equal set counts at both levels: one 32-line granule.
    params.l2.sliceGeom = CacheGeometry{8192, 4, 64};
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64};
    params.coherence = coherence;
    return params;
}

MemAccess
read(CoreId core, Addr line)
{
    return MemAccess{core, line << 6, AccessType::Read};
}

/** Dispersed footprint covering `frac` of the tag coverage. */
void
touchFootprint(Hierarchy &h, CoreId core, double frac)
{
    const Addr base = (Addr{core} + 1) << 24;
    const auto granules = static_cast<Addr>(frac * 128);
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < granules; ++g)
            h.access(read(core, base + g * 32 + (g % 32)), 0);
    }
}

TEST(ControllerPolicy, SplitHysteresisHoldsFreshMerges)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Epoch 1: hot/cold pair -> merge.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.05);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h);
    ASSERT_EQ(h.l2().groupOf(0), h.l2().groupOf(1));

    // Epoch 2: both halves run hot — split-desirable, but the
    // two-decision hysteresis must hold the group together.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h);
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(1))
        << "split before hysteresis expired";

    // Epoch 3: hysteresis expired — now it may split.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h);
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
}

TEST(ControllerPolicy, ChurnGuardBlocksStreamingPartner)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Core 0 hot; core 1 reads "cold" (tiny reused footprint) but
    // streams heavily: its slice is a conveyor, not spare capacity.
    touchFootprint(h, 0, 0.80);
    const Addr stream_base = Addr{7} << 30;
    for (Addr a = 0; a < 2500; ++a)
        h.access(read(1, stream_base + a), 0);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);

    // Sanity: core 1 reads under the MSAT low bound but with fill
    // pressure above the churn guard's 6x limit.
    EXPECT_LT(h.l2().acfvs().utilization(std::vector<SliceId>{1}), 0.234);
    EXPECT_GT(h.l2().fillPressure({1}), 6.0);

    ctrl.epochBoundary(h);
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
}

TEST(ControllerPolicy, OverlapLiftIsZeroForUnrelatedFootprints)
{
    Hierarchy h(smallParams());
    // Two large (60%+) but unrelated footprints: the raw common-1s
    // count is large by pigeonhole, the lift must stay small.
    touchFootprint(h, 0, 0.70);
    const Addr other = Addr{11} << 28;
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < 90; ++g)
            h.access(read(1, other + g * 32 + (g % 32)), 0);
    }
    EXPECT_LT(h.l2().acfvs().overlap(std::vector<SliceId>{0},
                                    std::vector<SliceId>{1}), 0.45);
}

TEST(ControllerPolicy, OverlapLiftIsHighForSharedFootprints)
{
    Hierarchy h(smallParams(4, /*coherence=*/true));
    // Cores 0 and 1 touch the same dispersed lines.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < 90; ++g) {
            h.access(read(0, 0x300000 + g * 32 + (g % 32)), 0);
            h.access(read(1, 0x300000 + g * 32 + (g % 32)), 0);
        }
    }
    EXPECT_GT(h.l2().acfvs().overlap(std::vector<SliceId>{0},
                                    std::vector<SliceId>{1}), 0.8);
}

TEST(ControllerPolicy, ConditionTwoMergesModestButSharedGroups)
{
    // With a shared address space, two groups *above the low bound*
    // with overlapping footprints merge even if neither reads
    // "high" — the replication/transfer savings do not require
    // near-capacity utilization.
    Hierarchy h(smallParams(4, /*coherence=*/true));
    MorphConfig config;
    MorphController ctrl(config, 4);

    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < 45; ++g) { // ~0.35 utilization
            h.access(read(0, 0x300000 + g * 32 + (g % 32)), 0);
            h.access(read(1, 0x300000 + g * 32 + (g % 32)), 0);
        }
    }
    touchFootprint(h, 2, 0.30);
    touchFootprint(h, 3, 0.30);

    ctrl.epochBoundary(h);
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(1));
    // The unrelated pair must not be merged by condition (ii).
    EXPECT_NE(h.l2().groupOf(2), h.l2().groupOf(3));
}

TEST(ControllerPolicy, NoConditionTwoWithoutSharedSpace)
{
    Hierarchy h(smallParams(4, /*coherence=*/false));
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Even perfectly overlapping footprints (same physical lines)
    // must not merge under condition (ii) when the workload is
    // declared multiprogrammed.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < 45; ++g) {
            h.access(read(0, 0x300000 + g * 32 + (g % 32)), 0);
            h.access(read(1, 0x300000 + g * 32 + (g % 32)), 0);
        }
    }
    touchFootprint(h, 2, 0.30);
    touchFootprint(h, 3, 0.30);
    ctrl.epochBoundary(h);
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
}

} // namespace
} // namespace morphcache
