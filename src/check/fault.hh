/**
 * @file
 * Deterministic fault injection for the reconfiguration engine.
 *
 * Dynamic-reconfiguration literature treats soft errors in the
 * reconfiguration metadata as first-class failure modes: a flipped
 * bit in a footprint vector, a mis-latched classification outcome,
 * or a lost bus grant must degrade a run, not corrupt it. The
 * injector below produces exactly those faults, seed-driven and
 * bit-for-bit reproducible, so the invariant checker and the
 * controller's quarantine path (invariant.hh, morph/controller.hh)
 * are exercisable in tests and campaigns:
 *
 *  - ACFV soft errors: random bit flips in the footprint vectors of
 *    a level at each epoch boundary;
 *  - MSAT classification corruption: merge/split desirability
 *    outcomes inverted with a configured probability;
 *  - illegal topology proposals: a decided topology mutated into a
 *    guaranteed-illegal shape (duplicate slice, dropped slice, or
 *    inclusion straddle) — the faults only the checker can catch;
 *  - segmented-bus grant faults: dropped grants (a whole
 *    transaction of re-arbitration) and delayed grants (one bus
 *    cycle), injected through the BusFaultHook interface.
 */

#ifndef MORPHCACHE_CHECK_FAULT_HH
#define MORPHCACHE_CHECK_FAULT_HH

#include <cstdint>

#include "common/rng.hh"
#include "hierarchy/topology.hh"
#include "interconnect/segmented_bus.hh"

namespace morphcache {

class CacheLevelModel;

/** Fault-campaign configuration (everything off by default). */
struct FaultConfig
{
    /** Seed of the injector's dedicated PRNG streams. */
    std::uint64_t seed = 1;
    /**
     * ACFV bits flipped per reconfigurable level per epoch
     * boundary (soft errors in the footprint vectors).
     */
    std::uint32_t acfvFlipsPerEpoch = 0;
    /** Probability a classification outcome is inverted. */
    double classificationFlipChance = 0.0;
    /**
     * Probability per epoch decision that the proposed topology is
     * corrupted into an illegal shape.
     */
    double illegalTopologyChance = 0.0;
    /**
     * Probability per bus grant of a dropped grant, which costs one
     * whole transaction of re-arbitration (busTxnCpuCycles).
     */
    double busDropChance = 0.0;
    /**
     * Probability per bus grant of a delayed grant, which arrives
     * one bus cycle (cpuCyclesPerBusCycle) late.
     */
    double busDelayChance = 0.0;

    /** Any fault class active? */
    bool
    enabled() const
    {
        return acfvFlipsPerEpoch > 0 ||
               classificationFlipChance > 0.0 ||
               illegalTopologyChance > 0.0 || busDropChance > 0.0 ||
               busDelayChance > 0.0;
    }
};

/** Injection counters (printed by the robustness report). */
struct FaultStats
{
    std::uint64_t acfvBitFlips = 0;
    std::uint64_t classificationFlips = 0;
    std::uint64_t illegalTopologies = 0;
    std::uint64_t busDrops = 0;
    std::uint64_t busDelays = 0;
    /** Total CPU cycles of injected bus-grant latency. */
    std::uint64_t busFaultCycles = 0;

    /** Total discrete fault events injected. */
    std::uint64_t
    total() const
    {
        return acfvBitFlips + classificationFlips +
               illegalTopologies + busDrops + busDelays;
    }
};

/**
 * Seed-driven fault injector.
 *
 * Epoch-granularity faults (ACFV flips, classification flips,
 * topology corruption) and per-access bus faults draw from two
 * independent PRNG streams derived from the seed, so the epoch
 * fault sequence does not depend on how much bus traffic an epoch
 * carried — the property that makes campaigns reproducible across
 * timing-model changes.
 */
class FaultInjector : public BusFaultHook
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    /** Flip config.acfvFlipsPerEpoch random ACFV bits in `level`. */
    void injectAcfvFaults(CacheLevelModel &level);

    /** Should this classification outcome be inverted? */
    bool corruptClassification();

    /**
     * Maybe mutate `topology` into a guaranteed-illegal shape.
     * @return true when a corruption was injected.
     */
    bool corruptTopology(Topology &topology);

    /** BusFaultHook: injected grant delay for one transaction. */
    Cycle grantDelay(SliceId slice, Cycle now) override;

    const FaultStats &stats() const { return stats_; }
    const FaultConfig &config() const { return config_; }

    /** Serialize PRNG streams + counters (config is immutable). */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.nested(self.epochRng_);
        ar.nested(self.busRng_);
        auto &stats = self.stats_;
        ar.u64(stats.acfvBitFlips);
        ar.u64(stats.classificationFlips);
        ar.u64(stats.illegalTopologies);
        ar.u64(stats.busDrops);
        ar.u64(stats.busDelays);
        ar.u64(stats.busFaultCycles);
    }

    FaultConfig config_; // ckpt: derived(FaultInjector)
    /** Epoch-granularity fault stream. */
    Rng epochRng_;
    /** Per-bus-grant fault stream. */
    Rng busRng_;
    FaultStats stats_;
};

} // namespace morphcache

#endif // MORPHCACHE_CHECK_FAULT_HH
