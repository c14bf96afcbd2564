/**
 * @file
 * The MorphCache reconfiguration controller (paper Section 2).
 *
 * At every epoch boundary the controller reads the ACFV bank of
 * both reconfigurable levels, classifies each sharing group as
 * highly- or under-utilized against the Merge/Split Aggressiveness
 * Threshold (MSAT), and rewrites the topology:
 *
 *  - merge two neighboring groups when one is highly utilized and
 *    the other under-utilized (capacity sharing), or when both are
 *    highly utilized, the workload shares one address space, and
 *    their footprints overlap (data sharing) — Section 2.2;
 *  - split a merged group when both halves run hot without sharing
 *    (destructive interference) — Section 2.3 / Figure 6;
 *  - honor inclusion: an L2 merge may force the covering L3 merge,
 *    and an L3 split requires the straddling L2 groups to split —
 *    Sections 2.2/2.3;
 *  - arbitrate split/merge conflicts by the merge-aggressive policy
 *    (default) or the split-aggressive alternative — Section 2.4;
 *  - optionally throttle the MSAT for QoS (Section 5.3) and relax
 *    the group-shape restrictions (Section 5.5).
 */

#ifndef MORPHCACHE_MORPH_CONTROLLER_HH
#define MORPHCACHE_MORPH_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/fault.hh"
#include "check/invariant.hh"
#include "hierarchy/hierarchy.hh"
#include "hierarchy/topology.hh"
#include "morph/proposal.hh"

namespace morphcache {

class StatsRegistry;
class Tracer;

/** Arbitration between conflicting split and merge opportunities. */
enum class ConflictPolicy : std::uint8_t {
    /** Default: prefer merging (Section 2.4). */
    MergeAggressive,
    /** Alternative policy compared in Section 5. */
    SplitAggressive,
};

/**
 * Default MSAT of the L3 level. The paper tuned one (60, 30) pair
 * "for reasonable aggressiveness" against its estimator; in this
 * model the L3 estimate reads systematically lower than the L2 one
 * (swept last-level working sets leave a thinner reuse trail), so
 * the same aggressiveness corresponds to a lower threshold pair.
 * The MSAT-sensitivity bench sweeps it.
 */
inline constexpr MsatConfig defaultMsatL3{0.26, 0.20};

/**
 * Merge-aggressive hysteresis in the thresholds themselves: a group
 * only splits when both halves exceed high * this factor. With the
 * factor at 1, any pair of mid-hot halves dissolves immediately and
 * capacity sharing never persists; the paper's merge-aggressive
 * default "favors a merge" whenever the two interpretations conflict
 * (Section 2.4).
 */
inline constexpr double splitHighFactor = 1.3;

/** Controller configuration. */
struct MorphConfig
{
    /** MSAT for the L2 level: the paper's (60, 30) on 128 bits. */
    MsatConfig msat;
    /** MSAT for the L3 level (see defaultMsatL3). */
    MsatConfig msatL3 = defaultMsatL3;
    ConflictPolicy conflict = ConflictPolicy::MergeAggressive;

    /**
     * Section 5.3: QoS-aware MSAT throttling. Enabled by default
     * in this reproduction: it is the mechanism that backs off
     * merges the miss counters prove harmful, and the sec53_qos
     * bench isolates its effect.
     */
    bool qosThrottling = true;

    /**
     * Section 5.5 extension: allow merged groups whose size is not
     * a power of two (still neighbors-only).
     */
    bool allowArbitraryGroupSizes = false;
    /**
     * Section 5.5 extension: allow merging non-adjacent groups;
     * they ride the physical segment spanning everything between
     * them and pay the corresponding latency stretch.
     */
    bool allowNonNeighborGroups = false;

    /**
     * Runtime invariant checking (src/check): validate partition
     * validity, group shapes, inclusiveness, and line conservation
     * at every epoch decision and reconfiguration. Off preserves
     * the historical unchecked behaviour; Log detects, counts, and
     * drops offending proposals; Recover additionally quarantines
     * the hierarchy to the all-private topology; Abort panics for
     * debugging.
     */
    CheckPolicy checkPolicy = CheckPolicy::Off;

    /**
     * Recover policy: clean epochs the hierarchy must survive in
     * quarantine before adaptation re-enters.
     */
    std::uint32_t quarantineCleanEpochs = 4;

    /**
     * Fault-injection campaign (src/check). When any fault class
     * is enabled the controller owns a seed-driven FaultInjector
     * and exposes it for bus-hook wiring.
     */
    FaultConfig faults;
};

/** Reconfiguration activity counters (Section 2.4). */
struct ReconfigStats
{
    std::uint64_t merges = 0;
    std::uint64_t splits = 0;
    /** Merges justified by condition (i): capacity sharing. */
    std::uint64_t mergesCondI = 0;
    /** Merges justified by condition (ii): data sharing. */
    std::uint64_t mergesCondII = 0;
    /** L3 merges forced structurally by an L2 merge (inclusion). */
    std::uint64_t mergesForced = 0;
    /** L2 splits forced structurally by an L3 split (inclusion). */
    std::uint64_t splitsForced = 0;
    /** Epochs on which at least one change was applied. */
    std::uint64_t activeEpochs = 0;
    /** Epoch decisions taken (all epoch boundaries seen). */
    std::uint64_t decisions = 0;
    /**
     * Merge/split events whose resulting topology was asymmetric
     * (not expressible as (x:y:z)).
     */
    std::uint64_t asymmetricOutcomes = 0;

    /** Total merges + splits. */
    std::uint64_t
    reconfigurations() const
    {
        return merges + splits;
    }
};

/** Graceful-degradation counters (Section: robustness subsystem). */
struct RobustnessStats
{
    /** Epoch decisions on which at least one violation fired. */
    std::uint64_t violationEpochs = 0;
    /** Proposals dropped under the Log policy. */
    std::uint64_t droppedTopologies = 0;
    /** Entries into quarantine (Recover policy). */
    std::uint64_t quarantines = 0;
    /** Epoch decisions spent holding the quarantine topology. */
    std::uint64_t quarantineEpochs = 0;
    /** Completed quarantines: adaptation re-entered. */
    std::uint64_t recoveries = 0;
};

/**
 * Epoch-granularity MorphCache controller.
 */
class MorphController
{
  public:
    MorphController(const MorphConfig &config, std::uint32_t num_cores);

    /**
     * Run one reconfiguration decision: read footprints from the
     * hierarchy, rewrite the topology, reset the footprint
     * estimators for the next epoch.
     */
    void epochBoundary(Hierarchy &hierarchy);

    /**
     * The pure decision function: compute the topology transition
     * this controller would propose from `current` under the given
     * classification signals — without mutating the controller, the
     * hierarchy, or any counters. `epochBoundary()` calls this and
     * replays the returned events into the activity counters and the
     * tracer; the static model checker (src/check/model_checker.hh)
     * calls it directly on synthetic signals to enumerate every
     * decision the engine can make.
     */
    TransitionProposal proposeTransition(const Topology &current,
                                         const DecisionInputs &in) const;

    /** Activity counters. */
    const ReconfigStats &stats() const { return stats_; }

    /** MSAT currently in effect (moves under QoS throttling). */
    const MsatConfig &msat() const { return msatNow_; }

    /** Configuration. */
    const MorphConfig &config() const { return config_; }

    // --- Observability ------------------------------------------

    /**
     * Attach a decision-provenance tracer (not owned; nullptr
     * detaches). When enabled, the controller emits structured
     * events for every MSAT classification, accepted merge/split
     * (with the condition and ACF readings that justified it),
     * topology change, and quarantine transition.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    /**
     * Register controller tallies onto a stats registry:
     * `morph.*` (reconfiguration activity incl. per-condition merge
     * counts and the live MSAT), `check.*` (invariant checker),
     * `robust.*` (degradation), and `fault.*` (injector, when one
     * is attached). The controller must outlive the registry's
     * sampling.
     */
    void registerStats(StatsRegistry &registry) const;

    // --- Robustness subsystem -----------------------------------

    /** Invariant checker (counters; policy from the config). */
    const InvariantChecker &checker() const { return checker_; }

    /** Degradation counters. */
    const RobustnessStats &robustness() const { return robust_; }

    /** Currently holding the quarantine topology? */
    bool inQuarantine() const { return quarantineLeft_ > 0; }

    /**
     * Fault injector in effect: the externally attached one, else
     * the config-owned one, else nullptr. Callers wiring bus-fault
     * hooks (MorphCacheSystem) read this.
     */
    FaultInjector *faultInjector() const;

    /**
     * Attach an external fault injector (tests; not owned;
     * nullptr detaches and falls back to the config-owned one).
     */
    void attachFaultInjector(FaultInjector *injector);

    /**
     * Human-readable robustness summary: checker, degradation, and
     * injection counters. Empty string when checking is off and no
     * faults were injected.
     */
    std::string robustnessReport() const;

    /**
     * Serialize the complete decision state: live MSATs, activity
     * counters, hysteresis stamps, QoS miss snapshots, checker and
     * degradation counters, quarantine countdown, and the owned
     * fault injector's PRNG streams. The external injector
     * (attachFaultInjector) is test-only and not serialized.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    MergeEval evaluateMerge(const DecisionInputs &in,
                            const LevelSignals &level,
                            const MsatConfig &msat,
                            const std::vector<SliceId> &a,
                            const std::vector<SliceId> &b) const;
    SplitEval evaluateSplit(const DecisionInputs &in,
                            const LevelSignals &level,
                            const MsatConfig &msat,
                            const std::vector<SliceId> &group) const;

    /** Count a merge by its justifying condition. */
    void countMergeCondition(const MergeEval &eval);

    /** Emit one accepted merge/split provenance event. */
    void traceMerge(const char *level, const ProposalEvent &event,
                    const MsatConfig &msat);
    void traceForcedMerge(const ProposalEvent &event);
    void traceSplit(const char *level, const ProposalEvent &event,
                    const MsatConfig &msat, bool forced);

    /** Emit per-group MSAT classification events for one level. */
    void traceClassification(const char *level,
                             const CacheLevelModel &model,
                             const Partition &partition,
                             const MsatConfig &msat);

    /** Structural check: may groups a and b merge at all? */
    bool mergeAllowed(const std::vector<SliceId> &a,
                      const std::vector<SliceId> &b, RuleBug bug) const;

    /** Split a group into its two halves. */
    static void splitGroup(const std::vector<SliceId> &group,
                           std::vector<SliceId> &first,
                           std::vector<SliceId> &second);

    /** L3 merges are always inclusion-safe (Section 2.2). */
    void doL3Merges(const DecisionInputs &in,
                    TransitionProposal &p) const;
    /** L2 merges, forcing covering L3 merges where required. */
    void doL2Merges(const DecisionInputs &in,
                    TransitionProposal &p) const;
    /** L2 splits are always inclusion-safe (Section 2.3). */
    void doL2Splits(const DecisionInputs &in,
                    TransitionProposal &p) const;
    /** L3 splits, requiring straddling L2 groups to split too. */
    void doL3Splits(const DecisionInputs &in,
                    TransitionProposal &p) const;

    /** Is the proposal's current topology asymmetric (Section 2.4)? */
    bool outcomeAsymmetric(const TransitionProposal &p) const;

    /**
     * Replay a finished proposal's events into the activity
     * counters and the provenance tracer — the only place decision
     * effects land, now that the decision itself is pure.
     */
    void replayProposal(const TransitionProposal &p);

    /** QoS MSAT throttling from per-core miss deltas (Section 5.3). */
    void throttleMsat(const Hierarchy &hierarchy);

    /** Shape rule implied by the Section 5.5 extension flags. */
    ShapeRule shapeRule() const;

    /**
     * Validate an intermediate decision state (after a merge/split
     * phase). @return true when a violation fired (decision must
     * be abandoned).
     */
    bool checkDecision(const Partition &l2, const Partition &l3,
                       const char *phase);

    /** React to a detected violation according to the policy. */
    void handleViolation(Hierarchy &hierarchy, bool dropped_proposal);

    /**
     * Degrade to the static all-private topology (always legal)
     * and hold until quarantineCleanEpochs clean epochs pass.
     */
    void enterQuarantine(Hierarchy &hierarchy);

    /** One epoch decision spent inside quarantine. */
    void quarantineEpoch(Hierarchy &hierarchy);

    MorphConfig config_;     // ckpt: derived(MorphController)
    std::uint32_t numCores_; // ckpt: derived(MorphController)
    MsatConfig msatNow_;
    MsatConfig msatL3Now_;
    ReconfigStats stats_;
    /** Decision index at which each slice's group last merged. */
    std::vector<std::uint64_t> l2MergeStamp_;
    std::vector<std::uint64_t> l3MergeStamp_;
    /** Per-core cumulative miss counts at the last boundary. */
    std::vector<std::uint64_t> lastMissSnapshot_;
    /** Per-core misses during the epoch preceding the last one. */
    std::vector<std::uint64_t> prevEpochMisses_;
    bool havePrevEpoch_ = false;
    bool mergedLastEpoch_ = false;

    // --- Robustness subsystem -----------------------------------
    InvariantChecker checker_;
    RobustnessStats robust_;
    /** Clean epochs still required before leaving quarantine. */
    std::uint32_t quarantineLeft_ = 0;
    /** Config-owned injector (when config.faults is enabled). */
    std::unique_ptr<FaultInjector> ownedFaults_;
    /** External injector override (tests); not owned. */
    FaultInjector *attachedFaults_ = nullptr; // ckpt: transient(test wiring)

    /** Decision-provenance tracer (not owned; null = disabled). */
    Tracer *tracer_ = nullptr; // ckpt: transient(wiring; reattached by owner)
};

} // namespace morphcache

#endif // MORPHCACHE_MORPH_CONTROLLER_HH
