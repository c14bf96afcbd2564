/**
 * @file
 * Exhaustive static verification of the reconfiguration engine.
 *
 * The legal-configuration space of a MorphCache hierarchy is a
 * finite transition system: states are (L2 partition, L3 partition)
 * pairs, and the transition relation is the controller's epoch
 * decision under every possible MSAT classification outcome. This
 * checker enumerates the *entire reachable space* from the
 * all-private start state and, for every reachable state and every
 * classification the hardware could latch, invokes the real
 * `MorphController::proposeTransition()` — the exact code path the
 * simulator runs — and proves that no proposal violates partition
 * validity, group shape, inclusiveness, or line conservation.
 *
 * Classification enumeration. Enumerating raw per-slice ACFV
 * vectors is infeasible (3^32 classifications at 16 cores) and
 * unnecessary: the decision logic consumes signals only through
 * `LevelSignals`, one query per merge/split evaluation, and each
 * query's influence on the decision is the boolean "desirable or
 * not". The oracle therefore enumerates each evaluation as a
 * two-way nondeterministic branch, memoized within one decision
 * (the live ACFV bank cannot answer the same query two ways in one
 * epoch), and replays prescribed answer prefixes to walk the whole
 * binary decision tree depth-first. Every behaviour a real-valued
 * signal assignment could induce maps onto one of these branches,
 * so the enumeration is a sound superset; condition-(ii) sharing
 * merges take the same structural action as condition-(i) merges,
 * so the two-way branch covers both justifications.
 *
 * Hysteresis contexts. Every state is explored twice: once with
 * merge-stamp hysteresis disabled (splits freely evaluated — the
 * superset of every stamp distance) and once with every multi-slice
 * L2 group stamp-blocked. The second context is not redundant: with
 * splits free, a straddling L2 group's split query is always asked
 * (and memoized) in the L2 split phase before an L3 split considers
 * it, so the forced-L2-split inclusion path can never fire. Only
 * when hysteresis suppresses the phase-3 query does the L3 split
 * phase ask it fresh and drive the forced bookkeeping — exactly the
 * code the simulator runs when an L3 split lands inside the
 * post-merge hysteresis window.
 *
 * Classification modes. `Full` walks the entire binary decision
 * tree per state — every combination of classification answers,
 * hence every multi-event epoch decision — and is the default up to
 * 8 cores. At 16 cores that tree has billions of leaves, so `Auto`
 * switches to `Cluster`: a partial-order reduction that runs, per
 * state, one decision per primary event (one "desirable" answer
 * plus its structurally forced companions; in the blocked context,
 * an L3-split primary also answers its forced straddler queries
 * "desirable"). The reachable state space stays exhaustive and
 * exact — every multi-event decision is a composition of
 * single-event steps, each of which starts from a reachable
 * intermediate topology whose outgoing single-event edges are all
 * verified, and the invariants are predicates on topologies, so any
 * violation a multi-event decision could produce is caught on the
 * single-event edge that introduces it. Multi-event bookkeeping
 * itself (merge cascades, multi-straddler forcing) is covered
 * exhaustively by the Full mode at smaller core counts over the
 * same code paths.
 *
 * Line conservation is established statically (a proposal is a
 * re-grouping of slices; the engine moves no lines) and re-checked
 * concretely on sampled transitions: a real Hierarchy is warmed
 * with a deterministic footprint, reconfigured across the sampled
 * edge, and audited with InvariantChecker::checkConservation().
 *
 * A failing proposal yields a counterexample: the BFS path of
 * topologies from the start state, the per-hop oracle answers, and
 * the offending decision's events and violations, replayed and
 * printed so the defect can be reproduced in isolation.
 */

#ifndef MORPHCACHE_CHECK_MODEL_CHECKER_HH
#define MORPHCACHE_CHECK_MODEL_CHECKER_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/invariant.hh"
#include "hierarchy/topology.hh"
#include "morph/controller.hh"
#include "morph/proposal.hh"

namespace morphcache {

/** One nondeterministic classification answered during a decision. */
struct OracleDecision
{
    /** Packed query: level, merge/split, and the group ranges. */
    std::uint32_t key = 0;
    /** The answer explored: was the merge/split desirable? */
    bool desirable = false;
};

/** Human-readable form of a packed oracle query ("l3 merge ..."). */
std::string oracleQueryName(std::uint32_t key);

/**
 * Two-way nondeterministic classification oracle.
 *
 * Within one run (one epoch decision), answers are memoized by
 * query so repeated evaluations are consistent, mirroring the
 * frozen ACFV bank. Fresh queries consume a prescribed answer
 * script and default to "not desirable" beyond it; advance()
 * computes the next script, flipping the deepest unexplored branch
 * (depth-first traversal of the decision tree).
 */
class ClassificationOracle
{
  public:
    /** "No query": a key value no packed query can take. */
    static constexpr std::uint32_t kNoQuery = 0xffffffffu;

    /** Start a scripted run with the given prescribed answers. */
    void beginRun(const std::vector<char> &script);

    /**
     * Start a targeted run: exactly the query `yes_key` is answered
     * "desirable" (kNoQuery for none); with `yes_all_l2_splits`,
     * every L2 split query is too (forced-straddler companions of
     * an L3-split primary in the hysteresis-blocked context).
     */
    void beginTargetedRun(std::uint32_t yes_key,
                          bool yes_all_l2_splits);

    /** Answer a query (memoized; consumes the script when fresh). */
    bool answer(std::uint32_t key);

    /** Fresh decisions of the current run, in query order. */
    const std::vector<OracleDecision> &trail() const { return trail_; }

    /**
     * Compute the next answer script from the current trail.
     * @return false when the decision tree is exhausted.
     */
    bool advance(std::vector<char> &script) const;

  private:
    std::vector<OracleDecision> trail_;
    std::vector<char> script_;
    bool targeted_ = false;
    std::uint32_t yesKey_ = kNoQuery;
    bool yesAllL2Splits_ = false;
};

/**
 * LevelSignals that realizes oracle answers as signal values: a
 * desirable merge reads one hot and one low-churn cold group
 * (condition i), a desirable split reads two hot halves, and any
 * undesirable evaluation reads mid-band utilizations.
 */
class OracleLevelSignals final : public LevelSignals
{
  public:
    OracleLevelSignals(ClassificationOracle &oracle, bool is_l3,
                       const MsatConfig &msat);

    MergeSignals
    mergeSignals(const std::vector<SliceId> &a,
                 const std::vector<SliceId> &b) const override;
    SplitSignals
    splitSignals(const std::vector<SliceId> &first,
                 const std::vector<SliceId> &second) const override;
    double overlap(const std::vector<SliceId> &a,
                   const std::vector<SliceId> &b) const override;
    double
    utilization(const std::vector<SliceId> &slices) const override;

  private:
    ClassificationOracle &oracle_;
    bool isL3_;
    double hot_;
    double cold_;
    double mid_;
};

/** How classification outcomes are enumerated per state. */
enum class ClassificationMode
{
    /** Full up to 8 cores, Cluster beyond. */
    Auto,
    /** Every answer combination (the whole decision tree). */
    Full,
    /** One decision per primary event (partial-order reduction). */
    Cluster,
};

/** Parse a --classifications value; throws ConfigError. */
ClassificationMode classificationModeFromName(const char *name);
/** CLI name of a classification mode. */
const char *classificationModeName(ClassificationMode mode);

/** Model-checker configuration. */
struct ModelCheckConfig
{
    /** Cores (= slices per level); power of two, 2..32. */
    std::uint32_t numCores = 8;
    /** Per-state classification enumeration strategy. */
    ClassificationMode classifications = ClassificationMode::Auto;
    /** L2 MSAT driving the explored decisions. */
    MsatConfig msat;
    /** L3 MSAT. */
    MsatConfig msatL3 = defaultMsatL3;
    /** Stop after discovering this many states (0 = unlimited). */
    std::uint64_t maxStates = 0;
    /** Concrete line-conservation samples to run (0 = none). */
    std::uint64_t lineChecks = 0;
    /** Planted decision-rule mutation (checker self-test). */
    RuleBug ruleBug = RuleBug::None;
};

/** Exploration counters. */
struct ModelCheckStats
{
    /** Distinct reachable states discovered. */
    std::uint64_t states = 0;
    /** States fully expanded (all classifications enumerated). */
    std::uint64_t statesExpanded = 0;
    /** proposeTransition() invocations (decision-tree leaves). */
    std::uint64_t transitions = 0;
    /** Deepest BFS level reached. */
    std::uint64_t maxDepth = 0;
    /** Concrete line-conservation samples executed. */
    std::uint64_t lineChecksRun = 0;
    /** Exploration stopped early by maxStates. */
    bool truncated = false;
};

/** One hop of a counterexample trace. */
struct CounterexampleStep
{
    /** Topology the decision started from. */
    Topology from;
    /** Classification answers that drove the decision. */
    std::vector<OracleDecision> answers;
    /** What the engine proposed. */
    TransitionProposal proposal;
    /** Decided in the hysteresis-blocked context. */
    bool splitsBlocked = false;
};

/** A reproducible path to an invariant-violating proposal. */
struct Counterexample
{
    /** Decisions from the all-private start state; last one fails. */
    std::vector<CounterexampleStep> steps;
    /** Violations of the final proposal. */
    std::vector<Violation> violations;
};

/** Print a counterexample trace (one line per fact). */
void printCounterexample(std::ostream &os, const Counterexample &cex);

/**
 * BFS enumerator over the reachable topology space.
 */
class TopologyModelChecker
{
  public:
    explicit TopologyModelChecker(const ModelCheckConfig &config);

    /**
     * Explore exhaustively. @return true when every reachable
     * proposal satisfies the invariants; false leaves the first
     * counterexample in counterexample().
     */
    bool run();

    const ModelCheckStats &stats() const { return stats_; }
    const std::optional<Counterexample> &counterexample() const
    {
        return counterexample_;
    }

    /** One-paragraph summary of the exploration. */
    std::string summary() const;

  private:
    /** Per-state exploration record (counterexample replay). */
    struct StateRec
    {
        /** Predecessor state key (self for the start state). */
        std::uint64_t parent = 0;
        /** Oracle script that produced this state from the parent. */
        std::vector<char> script;
        /** BFS depth. */
        std::uint64_t depth = 0;
        /** Discovered in the hysteresis-blocked context. */
        bool splitsBlocked = false;
    };

    /** The mode Auto resolves to for this core count. */
    ClassificationMode resolvedMode() const;

    /** Pack both partitions into a group-boundary-bitmask key. */
    std::uint64_t encode(const Partition &l2,
                         const Partition &l3) const;
    /** Rebuild the topology a key denotes. */
    Topology decode(std::uint64_t key) const;

    /** Run one decision from `from` with the oracle already begun. */
    TransitionProposal propose(const Topology &from,
                               ClassificationOracle &oracle,
                               bool splits_blocked) const;

    /**
     * Verify one explored decision, sample line conservation, and
     * record a newly discovered successor. @return false when a
     * counterexample was recorded (exploration must stop).
     */
    bool processRun(std::uint64_t key, std::uint64_t depth,
                    const Topology &from,
                    const ClassificationOracle &oracle,
                    const TransitionProposal &proposal,
                    bool splits_blocked);

    /** Walk the whole decision tree of one state/context. */
    bool expandFull(std::uint64_t key, std::uint64_t depth,
                    const Topology &from, bool splits_blocked);
    /** One decision per primary event (partial-order reduction). */
    bool expandCluster(std::uint64_t key, std::uint64_t depth,
                       const Topology &from, bool splits_blocked);

    /** Invariants of one proposal; empty = clean. */
    std::vector<Violation> verify(const TransitionProposal &p) const;

    /** Concrete line-conservation audit of one sampled edge. */
    std::vector<Violation> lineCheck(const Topology &from,
                                     const Topology &to);

    /** Build the counterexample ending in the given failing step. */
    void buildCounterexample(std::uint64_t from_key,
                             const std::vector<char> &script,
                             bool splits_blocked,
                             std::vector<Violation> violations);

    ModelCheckConfig config_;
    MorphController controller_;
    InvariantChecker checker_;
    ModelCheckStats stats_;
    std::unordered_map<std::uint64_t, StateRec> states_;
    std::vector<std::uint64_t> queue_;
    /** Stamps that block every multi-slice group's phase-3 split. */
    std::vector<std::uint64_t> blockedStamps_;
    std::optional<Counterexample> counterexample_;
};

} // namespace morphcache

#endif // MORPHCACHE_CHECK_MODEL_CHECKER_HH
