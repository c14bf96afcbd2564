/**
 * @file
 * Tests for the experiment configurations: scale consistency
 * between paper and fast scale, and generator/hierarchy matching.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "hierarchy/hierarchy.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {
namespace {

TEST(Config, PaperScaleMatchesTable3)
{
    const HierarchyParams params = paperScaleHierarchy(16);
    EXPECT_EQ(params.l1Geom.sizeBytes, 32u * 1024);
    EXPECT_EQ(params.l1Geom.assoc, 4u);
    EXPECT_EQ(params.l2.sliceGeom.sizeBytes, 256u * 1024);
    EXPECT_EQ(params.l2.sliceGeom.assoc, 8u);
    EXPECT_EQ(params.l3.sliceGeom.sizeBytes, 1024u * 1024);
    EXPECT_EQ(params.l3.sliceGeom.assoc, 16u);
    EXPECT_EQ(params.l2.localHitLatency, 10u);
    EXPECT_EQ(params.l3.localHitLatency, 30u);
}

TEST(Config, FastScalePreservesRatios)
{
    const HierarchyParams paper = paperScaleHierarchy(16);
    const HierarchyParams fast = fastScaleHierarchy(16);
    // Capacities divided by 8, associativities and latencies kept.
    EXPECT_EQ(paper.l2.sliceGeom.sizeBytes,
              8 * fast.l2.sliceGeom.sizeBytes);
    EXPECT_EQ(paper.l3.sliceGeom.sizeBytes,
              8 * fast.l3.sliceGeom.sizeBytes);
    EXPECT_EQ(paper.l1Geom.sizeBytes, 8 * fast.l1Geom.sizeBytes);
    EXPECT_EQ(paper.l2.sliceGeom.assoc, fast.l2.sliceGeom.assoc);
    EXPECT_EQ(paper.l3.sliceGeom.assoc, fast.l3.sliceGeom.assoc);
    EXPECT_EQ(paper.l2.localHitLatency, fast.l2.localHitLatency);
    // L2:L3 slice ratio identical at both scales.
    EXPECT_EQ(paper.l3.sliceGeom.sizeBytes /
                  paper.l2.sliceGeom.sizeBytes,
              fast.l3.sliceGeom.sizeBytes /
                  fast.l2.sliceGeom.sizeBytes);
}

TEST(Config, GeneratorMatchesHierarchyScale)
{
    for (const HierarchyParams &params :
         {paperScaleHierarchy(16), fastScaleHierarchy(16)}) {
        const GeneratorParams gen = generatorFor(params);
        EXPECT_EQ(gen.l2SliceLines, params.l2.sliceGeom.numLines());
        EXPECT_EQ(gen.l3SliceLines, params.l3.sliceGeom.numLines());
        // Coverage factor = acfvBits / assoc at both levels, the
        // invariant that puts ACFV utilization on the Table 4 scale.
        EXPECT_DOUBLE_EQ(gen.l2CoverageFactor,
                         static_cast<double>(params.l2.acfvBits) /
                             params.l2.sliceGeom.assoc);
        EXPECT_DOUBLE_EQ(gen.l3CoverageFactor,
                         static_cast<double>(params.l3.acfvBits) /
                             params.l3.sliceGeom.assoc);
    }
}

TEST(Config, CoverageIsScaleInvariant)
{
    // ACFV tag coverage / slice capacity must be identical at both
    // scales: this is what makes fast-scale results transfer.
    auto coverage_ratio = [](const HierarchyParams &params) {
        const double granule =
            static_cast<double>(params.l2.sliceGeom.numSets());
        return params.l2.acfvBits * granule /
               static_cast<double>(params.l2.sliceGeom.numLines());
    };
    EXPECT_DOUBLE_EQ(coverage_ratio(paperScaleHierarchy(16)),
                     coverage_ratio(fastScaleHierarchy(16)));
}

TEST(Config, ExperimentHierarchyDefaultsToFastScale)
{
    // (Assumes MC_PAPER_SCALE is unset in the test environment.)
    const HierarchyParams params = experimentHierarchy(16);
    EXPECT_EQ(params.l2.sliceGeom.sizeBytes, 32u * 1024);
}

TEST(Config, RealisticReplacementInExperimentConfigs)
{
    EXPECT_EQ(static_cast<int>(
                  experimentHierarchy(16).l2.policy),
              static_cast<int>(ReplPolicy::TreePLRU));
    EXPECT_EQ(static_cast<int>(
                  paperScaleHierarchy(16).l3.policy),
              static_cast<int>(ReplPolicy::TreePLRU));
}

/** Expect validate() to throw a ConfigError mentioning `needle`. */
void
expectInvalid(const HierarchyParams &params, const std::string &needle)
{
    try {
        params.validate();
        FAIL() << "expected ConfigError containing '" << needle
               << "'";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "actual message: " << err.what();
    }
}

TEST(Config, ShippedConfigurationsValidate)
{
    EXPECT_NO_THROW(HierarchyParams::defaultParams(16).validate());
    EXPECT_NO_THROW(paperScaleHierarchy(16).validate());
    EXPECT_NO_THROW(fastScaleHierarchy(8).validate());
}

TEST(Config, ValidateRejectsNonPowerOfTwoCapacity)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l2.sliceGeom.sizeBytes = 3 * 1024;
    expectInvalid(params, "not a power of two");
}

TEST(Config, ValidateRejectsNonPowerOfTwoLineSize)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l1Geom.lineBytes = 48;
    expectInvalid(params, "line size 48");
}

TEST(Config, ValidateRejectsAssocBeyondSliceLines)
{
    HierarchyParams params = fastScaleHierarchy(4);
    // 4 KB / 64 B = 64 lines; 128 ways cannot fit.
    params.l2.sliceGeom = CacheGeometry{4096, 128, 64};
    expectInvalid(params, "associativity 128");
}

TEST(Config, ValidateRejectsSliceCountMismatch)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l3.numSlices = 8;
    expectInvalid(params, "one slice per core");
}

TEST(Config, ValidateRejectsLineSizeMismatchAcrossLevels)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l3.sliceGeom.lineBytes = 128;
    expectInvalid(params, "line size must match");
}

TEST(Config, ValidateRejectsZeroLatency)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l3.localHitLatency = 0;
    expectInvalid(params, "latencies must be nonzero");
}

TEST(Config, HierarchyConstructorValidates)
{
    HierarchyParams params = fastScaleHierarchy(4);
    params.l2.numSlices = 2;
    EXPECT_THROW(Hierarchy{params}, ConfigError);
}

TEST(Config, SimulationRejectsZeroEpochLength)
{
    const HierarchyParams hier = fastScaleHierarchy(16);
    MixWorkload workload(mixByName("MIX 01"), generatorFor(hier), 7);
    MorphCacheSystem system(hier, MorphConfig{});
    SimParams sim;
    sim.refsPerEpochPerCore = 0;
    EXPECT_THROW(Simulation(system, workload, sim), ConfigError);
}

} // namespace
} // namespace morphcache
