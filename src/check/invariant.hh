/**
 * @file
 * Runtime invariant checking for the reconfiguration engine.
 *
 * The paper states the structural invariants MorphCache depends on
 * — every partition must cover the slices of its level exactly once,
 * every L2 sharing group must be contained in a single L3 group
 * (inclusiveness, Sections 2.2/2.3), groups must have the shapes the
 * configured mode permits, and a reconfiguration must never create
 * cache lines out of thin air. The first three are the topology
 * rulebook's (hierarchy/topology.hh), which the levels enforce with
 * fatal(). InvariantChecker reports them and the line accounting
 * without terminating: each class of violation is detected,
 * described, counted, and handled according to a configurable
 * policy, so a controller bug or an injected fault (fault.hh)
 * degrades a run gracefully instead of silently corrupting its
 * results.
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
 * The check* methods are pure detectors: they return Violation
 * records and never terminate the process, unlike
 * validatePartition()/MC_ASSERT. The partition, shape and inclusion
 * rules are the topology rulebook's (topology.hh); the checker adds
 * line conservation and slice occupancy. Applying the policy (warn,
 * abort) and counting happens in report(); the *recovery* reaction
 * lives in MorphController, which owns the quarantine state machine.
 */
class InvariantChecker
{
  public:
    explicit InvariantChecker(CheckPolicy policy = CheckPolicy::Off);

    CheckPolicy policy() const { return policy_; }
    bool enabled() const { return policy_ != CheckPolicy::Off; }

    /**
     * Full topology check: the rulebook's topologyFindings() (both
     * partitions, both shape sets, L2-within-L3 inclusiveness).
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
