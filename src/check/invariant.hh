/**
 * @file
 * Runtime invariant checking for the reconfiguration engine.
 *
 * The paper states the structural invariants MorphCache depends on
 * — every partition must cover the slices of its level exactly once,
 * every L2 sharing group must be contained in a single L3 group
 * (inclusiveness, Sections 2.2/2.3), groups must have the shapes the
 * configured mode permits, and a reconfiguration must never create
 * cache lines out of thin air — but the simulator historically only
 * enforced them with process-killing assertions on a few paths.
 * InvariantChecker makes them first-class: each class of violation
 * is detected, described, counted, and handled according to a
 * configurable policy, so a controller bug or an injected fault
 * (fault.hh) degrades a run gracefully instead of silently
 * corrupting its results.
 */

#ifndef MORPHCACHE_CHECK_INVARIANT_HH
#define MORPHCACHE_CHECK_INVARIANT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "hierarchy/topology.hh"

namespace morphcache {

class Hierarchy;

/** What to do when an invariant violation is detected. */
enum class CheckPolicy : std::uint8_t {
    /** No checking at all (the historical behaviour). */
    Off,
    /** Detect, count, and warn; drop the offending proposal. */
    Log,
    /**
     * Detect, count, warn, and quarantine the hierarchy to the
     * static all-private topology until it proves clean again.
     */
    Recover,
    /** Detect and panic() so the failure can be debugged. */
    Abort,
};

/** Parse "off"/"log"/"recover"/"abort"; throws ConfigError. */
CheckPolicy checkPolicyFromName(const std::string &name);

/** Lower-case name of a policy. */
const char *checkPolicyName(CheckPolicy policy);

/** Classes of invariant the checker knows how to violate-test. */
enum class InvariantKind : std::uint8_t {
    /** A level's partition does not cover [0, n) exactly once. */
    PartitionValidity,
    /** A group's shape is illegal for the configured mode. */
    GroupShape,
    /** An L2 group straddles more than one L3 group. */
    Inclusion,
    /** Valid lines appeared from nowhere across a reconfiguration. */
    LineConservation,
    /** A slice reports more valid lines than it has ways. */
    SliceOverflow,
};

/** Number of InvariantKind values (for counter arrays). */
inline constexpr std::size_t numInvariantKinds = 5;

/** Short name of an invariant class ("partition", "inclusion", ...). */
const char *invariantKindName(InvariantKind kind);

/** One detected violation. */
struct Violation
{
    InvariantKind kind;
    /** Human-readable description with the offending values. */
    std::string message;
};

/** Group-shape rules in force (derived from MorphConfig). */
enum class ShapeRule : std::uint8_t {
    /** Section 5.5 non-neighbor mode: any slice sets. */
    Any,
    /** Section 5.5 arbitrary-size mode: contiguous ranges. */
    Contiguous,
    /** Default mode: aligned power-of-two ranges. */
    AlignedPow2,
};

/** Checker activity counters (printed by the robustness report). */
struct CheckStats
{
    /** Check entry points executed. */
    std::uint64_t checksRun = 0;
    /** Total violations detected. */
    std::uint64_t violations = 0;
    /** Violations by InvariantKind. */
    std::array<std::uint64_t, numInvariantKinds> byKind{};
};

/**
 * Detects violations of the MorphCache structural invariants.
 *
 * The check* methods are pure detectors: they append Violation
 * records and never terminate the process, unlike
 * validatePartition()/MC_ASSERT. Applying the policy (warn, abort)
 * and counting happens in report(); the *recovery* reaction lives in
 * MorphController, which owns the quarantine state machine.
 */
class InvariantChecker
{
  public:
    explicit InvariantChecker(CheckPolicy policy = CheckPolicy::Off);

    CheckPolicy policy() const { return policy_; }
    bool enabled() const { return policy_ != CheckPolicy::Off; }

    /**
     * Partition validity: every slice of [0, num_slices) appears in
     * exactly one group, groups and members are in canonical
     * ascending order, and no group is empty.
     */
    void checkPartition(const char *level, const Partition &partition,
                        std::uint32_t num_slices,
                        std::vector<Violation> &out) const;

    /** Group shapes against the rule in force. */
    void checkGroupShapes(const char *level,
                          const Partition &partition, ShapeRule rule,
                          std::vector<Violation> &out) const;

    /**
     * Full topology check: both partitions, both shape sets, and
     * L2-within-L3 inclusiveness.
     */
    std::vector<Violation> checkTopology(const Topology &topology,
                                         ShapeRule rule) const;

    /** Per-slice valid-line counts of both reconfigurable levels. */
    struct LineSnapshot
    {
        std::vector<std::uint64_t> l2Lines;
        std::vector<std::uint64_t> l3Lines;
    };

    /** Capture line counts before a reconfiguration. */
    static LineSnapshot snapshot(const Hierarchy &hierarchy);

    /**
     * Line accounting across a reconfiguration: merging and
     * splitting are changes of view, so no slice may *gain* valid
     * lines (inclusion back-invalidation may only remove them), and
     * no slice may ever exceed its physical capacity.
     */
    std::vector<Violation>
    checkConservation(const Hierarchy &hierarchy,
                      const LineSnapshot &before) const;

    /** Slice occupancy against physical capacity (both levels). */
    std::vector<Violation>
    checkOccupancy(const Hierarchy &hierarchy) const;

    /**
     * Count the violations and apply the non-recovery part of the
     * policy: warn each one under Log/Recover, panic under Abort.
     * @param where Context string for the log ("epoch decision").
     * @return true when `violations` is non-empty.
     */
    bool report(const char *where,
                const std::vector<Violation> &violations);

    const CheckStats &stats() const { return stats_; }

    /** Serialize activity counters (policy is construction-time). */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.u64(self.stats_.checksRun);
        ar.u64(self.stats_.violations);
        for (auto &count : self.stats_.byKind)
            ar.u64(count);
    }

    CheckPolicy policy_; // ckpt: derived(InvariantChecker)
    CheckStats stats_;
};

} // namespace morphcache

#endif // MORPHCACHE_CHECK_INVARIANT_HH
