/**
 * @file
 * Dynamic Spill-Receive (Qureshi, HPCA 2009 [18]), extended to both
 * private-L2 and private-L3 levels as in the paper's Figure 17
 * comparison.
 *
 * Each private cache learns, via set dueling, whether it is better
 * off as a *spiller* (its evictions are installed into another
 * cache) or a *receiver* (it accepts spilled lines). Leader sets
 * pin the two behaviours; a per-cache PSEL counter accumulates
 * miss feedback and decides the follower sets. A miss in the local
 * slice snoops the other slices before going to memory (the
 * remote-hit path), which is how spilled lines are found again.
 */

#ifndef MORPHCACHE_BASELINES_DSR_HH
#define MORPHCACHE_BASELINES_DSR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "hierarchy/cache_level.hh"
#include "sim/memory_system.hh"

namespace morphcache {

/**
 * DSR policy hooks for one cache level of private slices.
 */
class DsrPolicy : public LevelHooks
{
  public:
    /**
     * @param num_slices Private slices at this level.
     * @param num_sets Sets per slice.
     */
    DsrPolicy(std::uint32_t num_slices, std::uint64_t num_sets);

    void miss(CacheLevelModel &level, CoreId core,
              Addr line_addr) override;
    bool insert(CacheLevelModel &level, CoreId core, Addr line_addr,
                bool dirty, InsertOutcome &out) override;

    /** Is slice `s` spilling for (follower) set `set`? */
    bool isSpiller(SliceId slice, std::uint64_t set) const;

    /** PSEL counter of a slice (tests). */
    int psel(SliceId slice) const;

    /** Spills performed so far. */
    std::uint64_t numSpills() const { return spills_; }

    /** Serialize PSEL counters + spill rotor. */
    void
    saveState(CkptWriter &w) const override
    {
        checkpointFields(w, *this);
    }

    void loadState(CkptReader &r) override { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("PSEL counter count", self.psel_.size());
        for (auto &p : self.psel_) {
            // Two's complement in a u64.
            auto v = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(p));
            ar.u64(v);
            if constexpr (Ar::loading) {
                const auto value = static_cast<std::int64_t>(v);
                if (value < -pselMax || value > pselMax)
                    ar.fail("PSEL value " + std::to_string(value) +
                            " outside +-" + std::to_string(pselMax));
                p = static_cast<int>(value);
            }
        }
        ar.u64(self.rotor_);
        ar.u64(self.spills_);
    }

    enum class SetRole : std::uint8_t { Follower, SpillLeader,
                                        ReceiveLeader };

    SetRole roleOf(SliceId slice, std::uint64_t set) const;

    std::uint32_t numSlices_;  // ckpt: derived(DsrPolicy)
    std::uint64_t numSets_;    // ckpt: derived(DsrPolicy)
    /** Saturating per-slice selectors; >0 favours not spilling. */
    std::vector<int> psel_;
    std::uint32_t rotor_ = 0;
    std::uint64_t spills_ = 0;

    static constexpr int pselMax = 1023;
};

/**
 * The DSR memory system: private per-core L2 and L3 slices with
 * spill-receive capacity sharing at both levels, non-inclusive. The
 * slices form one group per level for *lookup* (a local miss snoops
 * the other slices) while insertion stays private-with-spill, which
 * is exactly the DSR operating model. DSR's snoop fabric is the
 * coherence network, not the MorphCache bus, so a snooped hit pays
 * the fixed remote premium. Throws ConfigError above 32 cores: a
 * 64-set leader period holds two leader sets per slice.
 */
std::unique_ptr<StaticTopologySystem>
makeDsrSystem(HierarchyParams params);

} // namespace morphcache

#endif // MORPHCACHE_BASELINES_DSR_HH
