/**
 * @file
 * Tests for the topology model checker (src/check/model_checker.*):
 * exact reachable-state counts, zero violations over the full
 * space, partial-order-reduction equivalence, counterexample
 * machinery under planted rule bugs, and the classification
 * oracle's memoization/enumeration mechanics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/model_checker.hh"
#include "common/error.hh"

namespace morphcache {
namespace {

ModelCheckConfig
configFor(std::uint32_t cores)
{
    ModelCheckConfig config;
    config.numCores = cores;
    config.lineChecks = 8;
    return config;
}

// The reachable space is every inclusion-respecting pair of
// aligned-power-of-two partitions. Aligned partitions of n slices
// satisfy A(n) = 1 + A(n/2)^2 (either one group, or independent
// halves): A(2)=2, A(4)=5, A(8)=26. Pairs satisfy
// T(n) = A(n) + T(n/2)^2 (either L3 fully merged with any legal L2
// refinement... collapsing to A(n) choices, or the two halves
// evolve independently): T(2)=3, T(4)=14, T(8)=222.
TEST(ModelChecker, ExactReachableStatesN4)
{
    TopologyModelChecker checker(configFor(4));
    EXPECT_TRUE(checker.run());
    EXPECT_EQ(checker.stats().states, 14u);
    EXPECT_EQ(checker.stats().statesExpanded, 14u);
    EXPECT_FALSE(checker.counterexample().has_value());
    EXPECT_FALSE(checker.stats().truncated);
    EXPECT_GT(checker.stats().lineChecksRun, 0u);
}

TEST(ModelChecker, ExactReachableStatesN8)
{
    TopologyModelChecker checker(configFor(8));
    EXPECT_TRUE(checker.run());
    EXPECT_EQ(checker.stats().states, 222u);
    EXPECT_EQ(checker.stats().statesExpanded, 222u);
    EXPECT_EQ(checker.stats().transitions, 112453u);
    EXPECT_FALSE(checker.counterexample().has_value());
}

// The cluster (partial-order-reduced) enumeration must reach
// exactly the same state space as the full decision-tree walk —
// every multi-event decision is a composition of single-event
// steps — while running far fewer decisions.
TEST(ModelChecker, ClusterModeMatchesFullStateSpace)
{
    ModelCheckConfig full = configFor(8);
    full.classifications = ClassificationMode::Full;
    ModelCheckConfig cluster = configFor(8);
    cluster.classifications = ClassificationMode::Cluster;

    TopologyModelChecker full_checker(full);
    TopologyModelChecker cluster_checker(cluster);
    EXPECT_TRUE(full_checker.run());
    EXPECT_TRUE(cluster_checker.run());
    EXPECT_EQ(full_checker.stats().states,
              cluster_checker.stats().states);
    EXPECT_LT(cluster_checker.stats().transitions,
              full_checker.stats().transitions / 10);
}

TEST(ModelChecker, MaxStatesTruncates)
{
    ModelCheckConfig config = configFor(8);
    config.maxStates = 5;
    TopologyModelChecker checker(config);
    EXPECT_TRUE(checker.run());
    EXPECT_TRUE(checker.stats().truncated);
    EXPECT_EQ(checker.stats().states, 5u);
}

TEST(ModelChecker, RejectsNonPowerOfTwoCores)
{
    EXPECT_THROW(TopologyModelChecker(configFor(6)), ConfigError);
    EXPECT_THROW(TopologyModelChecker(configFor(0)), ConfigError);
    EXPECT_THROW(TopologyModelChecker(configFor(64)), ConfigError);
}

// Planted decision-rule mutations must each produce a
// counterexample — the checker has teeth. The violation must also
// name the invariant the mutation breaks.
TEST(ModelChecker, InjectedSkipForcedL3MergeIsCaught)
{
    ModelCheckConfig config = configFor(8);
    config.ruleBug = RuleBug::SkipForcedL3Merge;
    TopologyModelChecker checker(config);
    EXPECT_FALSE(checker.run());
    ASSERT_TRUE(checker.counterexample().has_value());
    const Counterexample &cex = *checker.counterexample();
    ASSERT_FALSE(cex.violations.empty());
    EXPECT_EQ(cex.violations.front().kind,
              InvariantKind::Inclusion);
    // The trace must be replayable: a step with answers and the
    // offending proposal.
    ASSERT_FALSE(cex.steps.empty());
    EXPECT_FALSE(cex.steps.back().answers.empty());
}

TEST(ModelChecker, InjectedIgnoreAlignmentIsCaught)
{
    ModelCheckConfig config = configFor(8);
    config.ruleBug = RuleBug::IgnoreAlignment;
    TopologyModelChecker checker(config);
    EXPECT_FALSE(checker.run());
    ASSERT_TRUE(checker.counterexample().has_value());
    const Counterexample &cex = *checker.counterexample();
    ASSERT_FALSE(cex.violations.empty());
    EXPECT_EQ(cex.violations.front().kind,
              InvariantKind::GroupShape);
}

// The forced-L2-split path only fires when hysteresis suppresses
// the phase-3 split query (the blocked context); this mutation
// proves that context is genuinely explored.
TEST(ModelChecker, InjectedSkipForcedL2SplitIsCaught)
{
    ModelCheckConfig config = configFor(8);
    config.ruleBug = RuleBug::SkipForcedL2Split;
    TopologyModelChecker checker(config);
    EXPECT_FALSE(checker.run());
    ASSERT_TRUE(checker.counterexample().has_value());
    const Counterexample &cex = *checker.counterexample();
    ASSERT_FALSE(cex.violations.empty());
    EXPECT_EQ(cex.violations.front().kind,
              InvariantKind::Inclusion);
}

TEST(ModelChecker, MutationsCaughtInClusterModeToo)
{
    for (const RuleBug bug :
         {RuleBug::SkipForcedL3Merge, RuleBug::IgnoreAlignment,
          RuleBug::SkipForcedL2Split}) {
        ModelCheckConfig config = configFor(8);
        config.classifications = ClassificationMode::Cluster;
        config.ruleBug = bug;
        TopologyModelChecker checker(config);
        EXPECT_FALSE(checker.run()) << ruleBugName(bug);
        EXPECT_TRUE(checker.counterexample().has_value())
            << ruleBugName(bug);
    }
}

TEST(ModelChecker, CounterexamplePrinterNamesTheDecision)
{
    ModelCheckConfig config = configFor(8);
    config.ruleBug = RuleBug::SkipForcedL3Merge;
    TopologyModelChecker checker(config);
    ASSERT_FALSE(checker.run());
    std::ostringstream os;
    printCounterexample(os, *checker.counterexample());
    const std::string text = os.str();
    EXPECT_NE(text.find("counterexample:"), std::string::npos);
    EXPECT_NE(text.find("classify"), std::string::npos);
    EXPECT_NE(text.find("violation [inclusion]"),
              std::string::npos);
}

TEST(ClassificationOracle, MemoizesWithinARun)
{
    ClassificationOracle oracle;
    oracle.beginRun({1});
    EXPECT_TRUE(oracle.answer(42));
    EXPECT_TRUE(oracle.answer(42));  // memoized, not re-scripted
    EXPECT_FALSE(oracle.answer(43)); // beyond the script: "no"
    ASSERT_EQ(oracle.trail().size(), 2u);
    EXPECT_EQ(oracle.trail()[0].key, 42u);
}

TEST(ClassificationOracle, AdvanceWalksTheDecisionTree)
{
    // Two queries -> four leaves, visited deepest-branch-first.
    ClassificationOracle oracle;
    std::vector<char> script;
    std::vector<std::string> leaves;
    while (true) {
        oracle.beginRun(script);
        const bool a = oracle.answer(1);
        const bool b = oracle.answer(2);
        leaves.push_back(std::string() + (a ? 'y' : 'n') +
                         (b ? 'y' : 'n'));
        if (!oracle.advance(script))
            break;
    }
    const std::vector<std::string> expected{"nn", "ny", "yn", "yy"};
    EXPECT_EQ(leaves, expected);
}

TEST(ClassificationOracle, TargetedRunAnswersOnlyTheTarget)
{
    ClassificationOracle oracle;
    oracle.beginTargetedRun(7, false);
    EXPECT_FALSE(oracle.answer(3));
    EXPECT_TRUE(oracle.answer(7));
    EXPECT_FALSE(oracle.answer(9));

    // With the L2-split companion flag, L2 split keys (neither the
    // merge bit 24 nor the L3 bit 25 set) also answer yes.
    oracle.beginTargetedRun(1u << 25 | 4, true);
    EXPECT_TRUE(oracle.answer(1u << 25 | 4)); // the L3 primary
    EXPECT_TRUE(oracle.answer(5));            // an L2 split
    EXPECT_FALSE(oracle.answer(1u << 24 | 5)); // a merge: no
}

} // namespace
} // namespace morphcache
