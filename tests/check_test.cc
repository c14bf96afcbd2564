/**
 * @file
 * Tests for the robustness subsystem: invariant checking, seeded
 * fault injection, and the controller's quarantine-and-reenter
 * degradation path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/fault.hh"
#include "check/invariant.hh"
#include "common/error.hh"
#include "morph/controller.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"

namespace morphcache {
namespace {

HierarchyParams
smallParams(std::uint32_t cores = 4)
{
    HierarchyParams params = HierarchyParams::defaultParams(cores);
    params.l1Geom = CacheGeometry{1024, 2, 64};
    params.l2.sliceGeom = CacheGeometry{8192, 4, 64};   // 128 lines
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64};  // 256 lines
    return params;
}

MemAccess
read(CoreId core, Addr line)
{
    return MemAccess{core, line << 6, AccessType::Read};
}

/** Dispersed footprint covering `frac` of the ACFV coverage. */
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

/** Hot/cold pattern that makes the controller merge cores 0 and 1. */
void
mergeablePattern(Hierarchy &h)
{
    touchFootprint(h, 0, 0.80);
    touchFootprint(h, 1, 0.05);
    touchFootprint(h, 2, 0.35);
    touchFootprint(h, 3, 0.35);
}

bool
hasKind(const std::vector<Violation> &violations, InvariantKind kind)
{
    return std::any_of(violations.begin(), violations.end(),
                       [kind](const Violation &v) {
                           return v.kind == kind;
                       });
}

Topology
legalQuad()
{
    Topology topo;
    topo.numCores = 4;
    topo.l2 = {{0, 1}, {2}, {3}};
    topo.l3 = {{0, 1}, {2, 3}};
    return topo;
}

TEST(CheckPolicy, ParsesAndRejectsNames)
{
    EXPECT_EQ(checkPolicyFromName("off"), CheckPolicy::Off);
    EXPECT_EQ(checkPolicyFromName("log"), CheckPolicy::Log);
    EXPECT_EQ(checkPolicyFromName("recover"), CheckPolicy::Recover);
    EXPECT_EQ(checkPolicyFromName("abort"), CheckPolicy::Abort);
    EXPECT_THROW(checkPolicyFromName("bogus"), ConfigError);
    EXPECT_STREQ(checkPolicyName(CheckPolicy::Recover), "recover");
}

TEST(InvariantChecker, AcceptsLegalTopologies)
{
    const InvariantChecker checker(CheckPolicy::Log);
    EXPECT_TRUE(checker
                    .checkTopology(Topology::allPrivateTopology(8),
                                   ShapeRule::AlignedPow2)
                    .empty());
    EXPECT_TRUE(
        checker.checkTopology(legalQuad(), ShapeRule::AlignedPow2)
            .empty());
}

TEST(InvariantChecker, DetectsDuplicateSlice)
{
    const InvariantChecker checker(CheckPolicy::Log);
    Topology topo = legalQuad();
    topo.l2 = {{0, 1}, {1, 2}, {3}}; // slice 1 twice, slice 2 moved
    const auto violations =
        checker.checkTopology(topo, ShapeRule::Any);
    EXPECT_TRUE(hasKind(violations, InvariantKind::PartitionValidity));
}

TEST(InvariantChecker, DetectsMissingAndEmptyAndOutOfRange)
{
    const InvariantChecker checker(CheckPolicy::Log);
    Topology topo = legalQuad();
    topo.l2 = {{0, 1}, {2}}; // slice 3 missing
    EXPECT_TRUE(hasKind(checker.checkTopology(topo, ShapeRule::Any),
                        InvariantKind::PartitionValidity));

    topo = legalQuad();
    topo.l2 = {{0, 1}, {}, {2}, {3}}; // empty group
    EXPECT_TRUE(hasKind(checker.checkTopology(topo, ShapeRule::Any),
                        InvariantKind::PartitionValidity));

    topo = legalQuad();
    topo.l3 = {{0, 1}, {2, 9}}; // slice 9 out of range
    EXPECT_TRUE(hasKind(checker.checkTopology(topo, ShapeRule::Any),
                        InvariantKind::PartitionValidity));
}

TEST(InvariantChecker, DetectsShapeViolationsPerRule)
{
    const InvariantChecker checker(CheckPolicy::Log);
    Topology topo;
    topo.numCores = 4;
    topo.l2 = {{0, 2}, {1, 3}}; // non-contiguous pairs
    topo.l3 = {{0, 1, 2, 3}};
    EXPECT_TRUE(
        hasKind(checker.checkTopology(topo, ShapeRule::Contiguous),
                InvariantKind::GroupShape));
    // Any-shape mode (non-neighbor extension) accepts the same sets.
    EXPECT_FALSE(hasKind(checker.checkTopology(topo, ShapeRule::Any),
                         InvariantKind::GroupShape));

    // Contiguous but misaligned: {1,2} is no power-of-two buddy.
    topo.l2 = {{0}, {1, 2}, {3}};
    EXPECT_TRUE(
        hasKind(checker.checkTopology(topo, ShapeRule::AlignedPow2),
                InvariantKind::GroupShape));
    EXPECT_FALSE(
        hasKind(checker.checkTopology(topo, ShapeRule::Contiguous),
                InvariantKind::GroupShape));
}

TEST(InvariantChecker, DetectsInclusionStraddle)
{
    const InvariantChecker checker(CheckPolicy::Log);
    Topology topo;
    topo.numCores = 4;
    topo.l2 = {{0, 1}, {2, 3}};
    topo.l3 = {{0}, {1}, {2, 3}}; // L2 {0,1} straddles two L3 groups
    EXPECT_TRUE(hasKind(checker.checkTopology(topo, ShapeRule::Any),
                        InvariantKind::Inclusion));
}

TEST(InvariantChecker, ConservationFlagsGrownLineCounts)
{
    InvariantChecker checker(CheckPolicy::Log);
    Hierarchy h(smallParams());
    // Snapshot the empty hierarchy, then fill lines: every slice
    // that gained lines must be flagged as a conservation breach.
    const auto before = InvariantChecker::snapshot(h);
    touchFootprint(h, 0, 0.5);
    const auto violations = checker.checkConservation(h, before);
    EXPECT_TRUE(hasKind(violations, InvariantKind::LineConservation));
    // Occupancy alone is still legal: no slice exceeds capacity.
    EXPECT_TRUE(checker.checkOccupancy(h).empty());
}

TEST(InvariantChecker, ReportCountsByKindAndReturnsDetection)
{
    InvariantChecker checker(CheckPolicy::Log);
    Topology topo = legalQuad();
    topo.l2 = {{0, 1}, {2}}; // slice 3 missing
    EXPECT_FALSE(checker.report(
        "clean", checker.checkTopology(legalQuad(),
                                       ShapeRule::AlignedPow2)));
    EXPECT_TRUE(checker.report(
        "broken", checker.checkTopology(topo, ShapeRule::Any)));
    EXPECT_EQ(checker.stats().checksRun, 2u);
    EXPECT_GE(checker.stats().violations, 1u);
    EXPECT_GE(checker.stats().byKind[static_cast<std::size_t>(
                  InvariantKind::PartitionValidity)],
              1u);
}

TEST(InvariantCheckerDeathTest, AbortPolicyPanics)
{
    InvariantChecker checker(CheckPolicy::Abort);
    Topology topo = legalQuad();
    topo.l2 = {{0, 1}, {2}};
    EXPECT_DEATH(checker.report(
                     "test", checker.checkTopology(topo,
                                                   ShapeRule::Any)),
                 "invariant violation");
}

TEST(FaultInjector, AcfvFlipsAreSeedReproducible)
{
    FaultConfig config;
    config.seed = 1234;
    config.acfvFlipsPerEpoch = 40;

    Hierarchy h1(smallParams());
    Hierarchy h2(smallParams());
    FaultInjector inj1(config), inj2(config);
    for (int epoch = 0; epoch < 3; ++epoch) {
        inj1.injectAcfvFaults(h1.l2());
        inj1.injectAcfvFaults(h1.l3());
        inj2.injectAcfvFaults(h2.l2());
        inj2.injectAcfvFaults(h2.l3());
    }
    EXPECT_EQ(inj1.stats().acfvBitFlips, 3u * 2u * 40u);
    // The words of one (core, slice) ACFV.
    const auto words = [](const CacheLevelModel &level, CoreId c,
                          SliceId s) {
        std::vector<std::uint64_t> out;
        for (std::uint32_t w = 0; w < level.acfvs().numWords(); ++w)
            out.push_back(level.acfvs().word(c, s, w));
        return out;
    };
    for (CoreId c = 0; c < 4; ++c) {
        for (SliceId s = 0; s < 4; ++s) {
            EXPECT_EQ(words(h1.l2(), c, s), words(h2.l2(), c, s));
            EXPECT_EQ(words(h1.l3(), c, s), words(h2.l3(), c, s));
        }
    }

    // A different seed must produce a different flip pattern.
    config.seed = 99;
    Hierarchy h3(smallParams());
    FaultInjector inj3(config);
    for (int epoch = 0; epoch < 3; ++epoch) {
        inj3.injectAcfvFaults(h3.l2());
        inj3.injectAcfvFaults(h3.l3());
    }
    bool any_diff = false;
    for (CoreId c = 0; c < 4 && !any_diff; ++c) {
        for (SliceId s = 0; s < 4 && !any_diff; ++s) {
            any_diff = words(h1.l2(), c, s) != words(h3.l2(), c, s);
        }
    }
    EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, BusGrantFaultsAreSeedReproducible)
{
    FaultConfig config;
    config.seed = 7;
    config.busDropChance = 0.3;
    config.busDelayChance = 0.2;

    FaultInjector inj1(config), inj2(config);
    std::vector<Cycle> seq1, seq2;
    for (Cycle i = 0; i < 500; ++i) {
        seq1.push_back(inj1.grantDelay(0, i));
        seq2.push_back(inj2.grantDelay(0, i));
    }
    EXPECT_EQ(seq1, seq2);
    EXPECT_EQ(inj1.stats().busDrops, inj2.stats().busDrops);
    EXPECT_EQ(inj1.stats().busFaultCycles,
              inj2.stats().busFaultCycles);
    EXPECT_GT(inj1.stats().busDrops, 0u);
    EXPECT_GT(inj1.stats().busDelays, 0u);

    // The bus stream is independent of the epoch stream: consuming
    // epoch-granularity faults must not shift the grant sequence.
    FaultInjector inj3(config);
    (void)inj3.corruptClassification();
    Topology topo = Topology::allPrivateTopology(4);
    (void)inj3.corruptTopology(topo);
    std::vector<Cycle> seq3;
    for (Cycle i = 0; i < 500; ++i)
        seq3.push_back(inj3.grantDelay(0, i));
    EXPECT_EQ(seq1, seq3);
}

TEST(FaultInjector, CorruptedTopologiesAreAlwaysIllegal)
{
    FaultConfig config;
    config.seed = 5;
    config.illegalTopologyChance = 1.0;
    FaultInjector injector(config);
    const InvariantChecker checker(CheckPolicy::Log);

    for (int i = 0; i < 50; ++i) {
        Topology topo = legalQuad();
        ASSERT_TRUE(injector.corruptTopology(topo));
        EXPECT_FALSE(
            checker.checkTopology(topo, ShapeRule::Any).empty())
            << "corruption " << i << " produced a legal topology";
    }
    EXPECT_EQ(injector.stats().illegalTopologies, 50u);
}

TEST(Controller, LogModeDropsIllegalProposalAndCounts)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    config.checkPolicy = CheckPolicy::Log;
    config.faults.seed = 11;
    config.faults.illegalTopologyChance = 1.0;
    MorphController ctrl(config, 4);

    mergeablePattern(h);
    ctrl.epochBoundary(h);

    // The would-be merge was corrupted, detected, and dropped: the
    // hierarchy stays on its previous (all-private) topology.
    EXPECT_EQ(h.topology().l2.size(), 4u);
    EXPECT_GE(ctrl.checker().stats().violations, 1u);
    EXPECT_GE(ctrl.robustness().droppedTopologies, 1u);
    EXPECT_FALSE(ctrl.inQuarantine());
    EXPECT_EQ(ctrl.robustness().quarantines, 0u);
}

TEST(Controller, QuarantineEntersHoldsAndReenters)
{
    Hierarchy h(smallParams());
    MorphConfig config;
    config.checkPolicy = CheckPolicy::Recover;
    config.quarantineCleanEpochs = 2;
    MorphController ctrl(config, 4);

    FaultConfig fault_config;
    fault_config.seed = 3;
    fault_config.illegalTopologyChance = 1.0;
    FaultInjector injector(fault_config);
    ctrl.attachFaultInjector(&injector);

    // Pre-merge so the degradation visibly *changes* the topology.
    Topology merged;
    merged.numCores = 4;
    merged.l2 = {{0, 1}, {2}, {3}};
    merged.l3 = {{0, 1}, {2, 3}};
    h.reconfigure(merged);

    mergeablePattern(h);
    ctrl.epochBoundary(h);

    // Violation detected -> quarantined to static all-private.
    EXPECT_TRUE(ctrl.inQuarantine());
    EXPECT_EQ(ctrl.robustness().quarantines, 1u);
    EXPECT_EQ(h.topology().l2.size(), 4u);
    EXPECT_EQ(h.topology().l3.size(), 4u);

    // Stop injecting; hold for the configured clean epochs.
    ctrl.attachFaultInjector(nullptr);
    for (CoreId c = 0; c < 4; ++c)
        touchFootprint(h, c, 0.35);
    ctrl.epochBoundary(h);
    EXPECT_TRUE(ctrl.inQuarantine());
    ctrl.epochBoundary(h);
    EXPECT_FALSE(ctrl.inQuarantine());
    EXPECT_EQ(ctrl.robustness().recoveries, 1u);
    EXPECT_EQ(ctrl.robustness().quarantineEpochs, 2u);

    // Adaptation is genuinely re-entered: the next hot/cold epoch
    // merges again.
    mergeablePattern(h);
    ctrl.epochBoundary(h);
    EXPECT_FALSE(ctrl.inQuarantine());
    EXPECT_GE(ctrl.stats().merges, 1u);
    EXPECT_EQ(h.l2().groupOf(0), h.l2().groupOf(1));
}

TEST(ControllerDeathTest, AbortPolicyPanicsOnInjectedFault)
{
    MorphConfig config;
    config.checkPolicy = CheckPolicy::Abort;
    config.faults.seed = 11;
    config.faults.illegalTopologyChance = 1.0;
    EXPECT_DEATH(
        {
            Hierarchy h(smallParams());
            MorphController ctrl(config, 4);
            mergeablePattern(h);
            ctrl.epochBoundary(h);
        },
        "invariant violation");
}

TEST(Controller, CleanRunUnderLogPolicyReportsNoViolations)
{
    const HierarchyParams hier = fastScaleHierarchy(16);
    MixWorkload workload(mixByName("MIX 08"), generatorFor(hier), 42);
    MorphConfig config;
    config.checkPolicy = CheckPolicy::Log;
    MorphCacheSystem system(hier, config);

    SimParams sim;
    sim.epochs = 6;
    sim.refsPerEpochPerCore = 3000;
    Simulation simulation(system, workload, sim);
    const RunResult result = simulation.run();
    EXPECT_GT(result.avgThroughput, 0.0);

    const auto &checker = system.controller().checker();
    EXPECT_GT(checker.stats().checksRun, 0u);
    EXPECT_EQ(checker.stats().violations, 0u);
    EXPECT_EQ(system.controller().robustness().violationEpochs, 0u);
    // Checking on but nothing to report: the block still renders.
    EXPECT_NE(system.controller().robustnessReport().find("log"),
              std::string::npos);
}

/**
 * The acceptance campaign: a recover-mode run absorbing >= 1000
 * ACFV bit flips plus forced illegal merges must detect every
 * injected illegal topology, degrade, re-enter adaptation, and land
 * within 10% of the uninjected run's end-state miss rate.
 */
TEST(Controller, RecoverModeFaultCampaign)
{
    const HierarchyParams hier = fastScaleHierarchy(16);
    SimParams sim;
    sim.epochs = 10;
    sim.refsPerEpochPerCore = 3000;

    auto run = [&](bool inject) {
        MixWorkload workload(mixByName("MIX 09"), generatorFor(hier),
                             42);
        MorphConfig config;
        config.checkPolicy = CheckPolicy::Recover;
        config.quarantineCleanEpochs = 2;
        if (inject) {
            config.faults.seed = 2026;
            config.faults.acfvFlipsPerEpoch = 60;
            config.faults.illegalTopologyChance = 0.30;
            config.faults.classificationFlipChance = 0.02;
            config.faults.busDropChance = 0.01;
        }
        auto system =
            std::make_unique<MorphCacheSystem>(hier, config);
        Simulation simulation(*system, workload, sim);
        const RunResult result = simulation.run();
        double misses = 0;
        for (const auto v : result.epochs.back().misses)
            misses += static_cast<double>(v);
        return std::make_pair(std::move(system), misses);
    };

    auto [clean, clean_misses] = run(false);
    auto [faulty, faulty_misses] = run(true);

    const auto &ctrl = faulty->controller();
    const FaultInjector *injector = ctrl.faultInjector();
    ASSERT_NE(injector, nullptr);

    // The campaign actually injected at scale...
    EXPECT_GE(injector->stats().acfvBitFlips, 1000u);
    EXPECT_GE(injector->stats().illegalTopologies, 1u);
    EXPECT_GT(injector->stats().busDrops, 0u);

    // ...every illegal topology was detected and handled...
    EXPECT_GE(ctrl.checker().stats().violations,
              injector->stats().illegalTopologies);
    EXPECT_GE(ctrl.robustness().quarantines, 1u);
    EXPECT_GE(ctrl.robustness().recoveries, 1u);
    EXPECT_GE(ctrl.robustness().quarantineEpochs, 1u);

    // ...and the run still ends in a healthy state: final-epoch
    // miss count within 10% of the uninjected run.
    ASSERT_GT(clean_misses, 0.0);
    const double ratio = faulty_misses / clean_misses;
    EXPECT_GT(ratio, 0.90);
    EXPECT_LT(ratio, 1.10);

    // Report surfaces the campaign for humans.
    const std::string report = faulty->controller().robustnessReport();
    EXPECT_NE(report.find("recover"), std::string::npos);
    EXPECT_NE(report.find("injected ACFV bit flips"),
              std::string::npos);
}

} // namespace
} // namespace morphcache
