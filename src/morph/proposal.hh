/**
 * @file
 * The pure decision layer of the MorphCache controller.
 *
 * One epoch decision is a *function*: given the current topology and
 * the classification signals of both reconfigurable levels, it
 * produces a transition proposal — the new topology plus the ordered
 * list of merge/split events that justify it. MorphController's
 * `proposeTransition()` computes exactly that function with no
 * hidden state mutation, which is what lets two very different
 * callers share one code path:
 *
 *  - the simulator (MorphController::epochBoundary) feeds it live
 *    ACFV readings through CacheLevelSignals and replays the events
 *    into its activity counters and the provenance tracer;
 *  - the static model checker (src/check/model_checker.hh) feeds it
 *    synthetic signals that systematically enumerate every possible
 *    MSAT classification outcome, and proves that no reachable
 *    proposal violates the structural invariants.
 *
 * Everything the decision reads is in DecisionInputs; everything it
 * decides is in TransitionProposal.
 */

#ifndef MORPHCACHE_MORPH_PROPOSAL_HH
#define MORPHCACHE_MORPH_PROPOSAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "hierarchy/topology.hh"

namespace morphcache {

class CacheLevelModel;
class FaultInjector;

/**
 * Merge/Split Aggressiveness Threshold (Section 2.2).
 *
 * The paper's value (60, 30) is a bit-count bound on 128-bit
 * ACFVs; expressed as set-bit fractions that is (60/128, 30/128).
 */
struct MsatConfig
{
    /** Utilization above which a group counts as highly utilized. */
    double high = 60.0 / 128.0;
    /** Utilization below which a group counts as under-utilized. */
    double low = 30.0 / 128.0;
};

/** Signals one merge evaluation consumes, read in one shot. */
struct MergeSignals
{
    double utilA = 0.0;
    double utilB = 0.0;
    double fillPressureA = 0.0;
    double fillPressureB = 0.0;
};

/** Signals one split evaluation consumes (the group's two halves). */
struct SplitSignals
{
    double utilFirst = 0.0;
    double utilSecond = 0.0;
};

/**
 * Classification-signal source for one reconfigurable level.
 *
 * The decision logic never touches a CacheLevelModel directly; it
 * reads these queries. CacheLevelSignals adapts the live ACFV bank,
 * the model checker's oracle enumerates answers.
 */
class LevelSignals
{
  public:
    virtual ~LevelSignals() = default;

    /** Signals for a candidate merge of groups `a` and `b`. */
    virtual MergeSignals
    mergeSignals(const std::vector<SliceId> &a,
                 const std::vector<SliceId> &b) const = 0;

    /** Signals for a candidate split into `first` and `second`. */
    virtual SplitSignals
    splitSignals(const std::vector<SliceId> &first,
                 const std::vector<SliceId> &second) const = 0;

    /**
     * Footprint-overlap statistic between two slice sets (consulted
     * lazily, only when the sharing test needs it).
     */
    virtual double overlap(const std::vector<SliceId> &a,
                           const std::vector<SliceId> &b) const = 0;

    /** Plain utilization (provenance evidence of forced merges). */
    virtual double
    utilization(const std::vector<SliceId> &slices) const = 0;
};

/** LevelSignals over the live ACFV bank of a cache level. */
class CacheLevelSignals final : public LevelSignals
{
  public:
    explicit CacheLevelSignals(const CacheLevelModel &model)
        : model_(model)
    {
    }

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
    const CacheLevelModel &model_;
};

/** Why a merge was (un)desirable, with the ACF evidence. */
struct MergeEval
{
    bool desirable = false;
    /**
     * 0 = none; 1 = condition (i) capacity sharing; 2 = condition
     * (ii) data sharing; 3 = injected classification fault inverted
     * the decision.
     */
    int condition = 0;
    double utilA = 0.0;
    double utilB = 0.0;
    double overlap = 0.0;
};

/** Split evidence: the two halves' utilizations and overlap. */
struct SplitEval
{
    bool desirable = false;
    bool faultInverted = false;
    double utilFirst = 0.0;
    double utilSecond = 0.0;
    double overlap = 0.0;
};

/** One merge/split decided during an epoch decision, in order. */
struct ProposalEvent
{
    enum class Kind : std::uint8_t {
        /** ACF-driven merge of two L2 groups. */
        L2Merge,
        /** ACF-driven merge of two L3 groups. */
        L3Merge,
        /** L3 merge forced structurally by an L2 merge (inclusion). */
        ForcedL3Merge,
        /** ACF-driven split of an L2 group. */
        L2Split,
        /** ACF-driven split of an L3 group. */
        L3Split,
        /** L2 split forced structurally by an L3 split (inclusion). */
        ForcedL2Split,
    };

    Kind kind;
    /** Merge: range of group a. Split: range of the whole group. */
    SliceId aFirst = 0;
    SliceId aLast = 0;
    /** Merge only: range of group b. */
    SliceId bFirst = 0;
    SliceId bLast = 0;
    /** Evidence for merge kinds. */
    MergeEval merge;
    /** Evidence for split kinds. */
    SplitEval split;
    /**
     * The intermediate topology right after this event was not
     * expressible as (x:y:z) (only computed when
     * DecisionInputs::classifyOutcomes is set).
     */
    bool asymmetric = false;
};

/** Human-readable one-line description of an event. */
std::string proposalEventName(const ProposalEvent &event);

/**
 * Deliberately planted decision-rule bugs.
 *
 * The model checker's mutation mode (`mc_modelcheck
 * --inject-rule-bug`) enables one of these and asserts that a
 * counterexample is found — proving the checker can actually detect
 * a decision-engine defect. The simulator never sets them.
 */
enum class RuleBug : std::uint8_t {
    None,
    /** Drop the covering-L3 merge an L2 merge requires (§2.2). */
    SkipForcedL3Merge,
    /** Accept merges of non-buddy (unaligned) groups. */
    IgnoreAlignment,
    /** Split an L3 group without splitting straddling L2s (§2.3). */
    SkipForcedL2Split,
};

/** Parse a rule-bug name or ordinal; throws ConfigError. */
RuleBug ruleBugFromName(const std::string &name);

/** Lower-case name of a rule bug. */
const char *ruleBugName(RuleBug bug);

/**
 * Everything one epoch decision reads. The decision is a pure
 * function of these inputs (the two optional effect handles —
 * `faults` and `phaseCheck` — are explicit parameters, never hidden
 * state).
 */
struct DecisionInputs
{
    /** Classification signals of the two reconfigurable levels. */
    const LevelSignals *l2 = nullptr;
    const LevelSignals *l3 = nullptr;
    /** Thresholds in effect this epoch (post QoS throttling). */
    MsatConfig msatL2;
    MsatConfig msatL3;
    /** Ordinal of this decision (split hysteresis). */
    std::uint64_t decisionIndex = 0;
    /**
     * Per-slice decision stamps of the last merge (split
     * hysteresis); nullptr disables the hysteresis entirely.
     */
    const std::vector<std::uint64_t> *l2MergeStamps = nullptr;
    const std::vector<std::uint64_t> *l3MergeStamps = nullptr;
    /**
     * The threads share one address space, as the hierarchy's
     * coherence says: enables condition (ii) data-sharing merges and
     * the sharing veto on interference splits.
     */
    bool sharedAddressSpace = false;
    /**
     * Classification-corruption fault injection (explicit effect;
     * nullptr = no faults).
     */
    FaultInjector *faults = nullptr;
    /**
     * Invariant gate between decision phases: called with the
     * intermediate partitions; returning true abandons the
     * decision at that phase (explicit effect; empty = no gate).
     */
    std::function<bool(const Partition &l2, const Partition &l3,
                       const char *phase)>
        phaseCheck;
    /**
     * Compute trace evidence (utilizations) for structurally forced
     * merges. The simulator sets this when a tracer is attached.
     */
    bool provenance = false;
    /**
     * Compute the per-event (a)symmetry flags. The simulator needs
     * them for the Section 2.4 counters; the model checker skips
     * the cost.
     */
    bool classifyOutcomes = true;
    /** Planted rule mutation (model-checker teeth; None in the sim). */
    RuleBug ruleBug = RuleBug::None;
};

/** What one epoch decision decided. */
struct TransitionProposal
{
    /** Proposed partitions. */
    Partition l2;
    Partition l3;
    /** Parallel flags: group was formed by a merge this epoch. */
    std::vector<char> l2MergedNow;
    std::vector<char> l3MergedNow;
    /** Event tallies (== counts of the merge/split events). */
    std::uint64_t merges = 0;
    std::uint64_t splits = 0;
    /** Ordered merge/split events with their evidence. */
    std::vector<ProposalEvent> events;
    /** Phase at which the phaseCheck gate abandoned the decision. */
    const char *abandonedPhase = nullptr;

    bool abandoned() const { return abandonedPhase != nullptr; }
};

} // namespace morphcache

#endif // MORPHCACHE_MORPH_PROPOSAL_HH
