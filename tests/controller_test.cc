/**
 * @file
 * Unit tests for the MorphCache controller: merge/split decisions,
 * MSAT thresholds, inclusion coupling across levels, conflict
 * policies, QoS throttling, and the Section 5.5 extensions.
 */

#include <gtest/gtest.h>

#include "morph/controller.hh"

namespace morphcache {
namespace {

HierarchyParams
smallParams(std::uint32_t cores = 4)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{1024, 2, 64};
    // Both levels get 32 sets so they share a 32-line footprint
    // granule and the test helper below reads the same utilization
    // at L2 and L3.
    params.l2.sliceGeom = CacheGeometry{8192, 4, 64};   // 128 lines
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64};  // 256 lines
    return params;
}

MemAccess
read(CoreId core, Addr line)
{
    return MemAccess{core, line << 6, AccessType::Read};
}

/**
 * Drive core `core` over a dispersed footprint covering `frac` of
 * the ACFV tag coverage at both levels: one resident line per L3
 * granule (64 lines here), frac*128 granules. Utilization then
 * reads ~frac at L2 and L3 alike.
 */
void
touchFootprint(Hierarchy &h, CoreId core, double frac)
{
    const Addr base = (Addr{core} + 1) << 24;
    const auto granules = static_cast<Addr>(frac * 128);
    for (int pass = 0; pass < 2; ++pass) {
        // Two passes ensure hits set ACFV bits even after fills.
        for (Addr g = 0; g < granules; ++g)
            h.access(read(core, base + g * 32 + (g % 32)), 0);
    }
}

TEST(Controller, MergesHotWithColdNeighbor)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Core 0 hot (full footprint), core 1 cold, cores 2-3 medium
    // enough to stay untouched.
    touchFootprint(h, 0, 0.80); // well above the MSAT high bound
    touchFootprint(h, 1, 0.05); // well below the MSAT low bound
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);

    ctrl.epochBoundary(h);
    EXPECT_GE(ctrl.stats().merges, 1u);
    // Cores 0 and 1 now share an L2 group.
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(1));
    // Inclusion: their L3 slices are merged too (or already were).
    EXPECT_EQ(h.l3().groupOf(0), h.l3().groupOf(1));
}

TEST(Controller, NoMergeWhenBalanced)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);
    for (CoreId c = 0; c < 4; ++c)
        touchFootprint(h, c, 0.35); // all mid-range
    ctrl.epochBoundary(h);
    EXPECT_EQ(ctrl.stats().merges, 0u);
    EXPECT_EQ(h.topology().l2.size(), 4u);
}

TEST(Controller, SplitsWhenBothHalvesRunHot)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Start merged (pairwise at both levels).
    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2, 3}};
    merged.l3 = {{0, 1}, {2, 3}};
    h.reconfigure(merged);

    // Both halves of the first pair hot.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);

    ctrl.epochBoundary(h);
    EXPECT_GE(ctrl.stats().splits, 1u);
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
}

TEST(Controller, MergeAggressivePrefersMergeInConflict)
{
    // Figure 6: pair {0,1} both hot (split-eligible), pair {2,3}
    // both cold; merging the pairs is also eligible. The default
    // merge-aggressive policy must merge, not split.
    Hierarchy h(smallParams());
    MorphConfig config;
    config.conflict = ConflictPolicy::MergeAggressive;
    MorphController ctrl(config, 4);

    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2, 3}};
    merged.l3 = {{0, 1}, {2, 3}};
    h.reconfigure(merged);

    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.05);
    touchFootprint(h, 3, 0.05);

    ctrl.epochBoundary(h);
    // Groups merged into one quad; no split of {0,1}.
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(2));
    EXPECT_EQ(ctrl.stats().splits, 0u);
}

TEST(Controller, SplitAggressiveSplitsInConflict)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    config.conflict = ConflictPolicy::SplitAggressive;
    MorphController ctrl(config, 4);

    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2, 3}};
    merged.l3 = {{0, 1}, {2, 3}};
    h.reconfigure(merged);

    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.05);
    touchFootprint(h, 3, 0.05);

    ctrl.epochBoundary(h);
    // The hot pair was split first.
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
    EXPECT_GE(ctrl.stats().splits, 1u);
}

TEST(Controller, SharedDataMergesHotPairs)
{
    Hierarchy h(smallParams());
    h = Hierarchy([] {
        HierarchyParams p = smallParams();
        p.coherence = true;
        return p;
    }());
    MorphConfig config;
    MorphController ctrl(config, 4);

    // Cores 0 and 1 touch the SAME lines (shared data), both hot.
    for (int pass = 0; pass < 2; ++pass) {
        for (Addr g = 0; g < 102; ++g) {
            h.access(read(0, 0x100000 + g * 32 + (g % 32)), 0);
            h.access(read(1, 0x100000 + g * 32 + (g % 32)), 0);
        }
    }
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);

    ctrl.epochBoundary(h);
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(1));
}

TEST(Controller, WithoutSharedSpaceHotPairsStaySplit)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);

    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);

    ctrl.epochBoundary(h);
    EXPECT_NE(h.l2().groupOf(0), h.l2().groupOf(1));
    EXPECT_EQ(ctrl.stats().merges, 0u);
}

TEST(Controller, Pow2AlignmentRespectedByDefault)
{
    Hierarchy h(smallParams(8));
    MorphConfig config;
    MorphController ctrl(config, 8);

    // Make cores 1 and 2 a hot/cold pair: they are neighbors but
    // NOT buddies ({1,2} is misaligned), so no merge may happen
    // between them.
    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.05);
    for (int c : {0, 3, 4, 5, 6, 7})
        touchFootprint(h, static_cast<CoreId>(c), 0.35);

    ctrl.epochBoundary(h);
    EXPECT_NE(h.l2().groupOf(1), h.l2().groupOf(2));
}

TEST(Controller, ArbitraryGroupSizesExtension)
{
    Hierarchy h(smallParams(8));
    MorphConfig config;
    config.allowArbitraryGroupSizes = true;
    MorphController ctrl(config, 8);

    touchFootprint(h, 1, 0.80);
    touchFootprint(h, 2, 0.05);
    for (int c : {0, 3, 4, 5, 6, 7})
        touchFootprint(h, static_cast<CoreId>(c), 0.35);

    ctrl.epochBoundary(h);
    // Section 5.5: the misaligned neighbor pair may now merge.
    EXPECT_EQ(h.l2().groupOf(1), h.l2().groupOf(2));
}

TEST(Controller, NonNeighborExtensionMergesDistantPair)
{
    Hierarchy h(smallParams(8));
    MorphConfig config;
    config.allowArbitraryGroupSizes = true;
    config.allowNonNeighborGroups = true;
    MorphController ctrl(config, 8);

    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 7, 0.05);
    for (int c : {1, 2, 3, 4, 5, 6})
        touchFootprint(h, static_cast<CoreId>(c), 0.35);

    ctrl.epochBoundary(h);
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(7));
}

TEST(Controller, QosThrottlingRaisesMsatOnMissIncrease)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    config.qosThrottling = true;
    MorphController ctrl(config, 4);
    const double high0 = ctrl.msat().high;

    // Epoch 1: hot/cold pair so a merge happens.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.05);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h);
    ASSERT_GE(ctrl.stats().merges, 1u);

    // Epoch 2: inflate core 1's misses (streaming) so the QoS
    // monitor sees the merge as harmful.
    for (Addr a = 0; a < 4000; ++a)
        h.access(read(1, 0x900000 + a), 0);
    ctrl.epochBoundary(h);

    EXPECT_GT(ctrl.msat().high, high0);
}

TEST(Controller, CountsDecisionsAndActiveEpochs)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);
    for (CoreId c = 0; c < 4; ++c)
        touchFootprint(h, c, 0.35);
    ctrl.epochBoundary(h); // no change
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.05);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h); // merge
    EXPECT_EQ(ctrl.stats().decisions, 2u);
    EXPECT_EQ(ctrl.stats().activeEpochs, 1u);
}

TEST(Controller, AsymmetricOutcomesCounted)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    MorphController ctrl(config, 4);
    // One merge of {0,1} while {2,3} stay private produces an
    // asymmetric L2 partition {2,1,1}.
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.05);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
    ctrl.epochBoundary(h);
    ASSERT_GE(ctrl.stats().merges, 1u);
    EXPECT_GE(ctrl.stats().asymmetricOutcomes, 1u);
}

} // namespace
} // namespace morphcache
