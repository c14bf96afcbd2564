/**
 * @file
 * Promotion/Insertion Pseudo-Partitioning (Xie & Loh, ISCA 2009
 * [28]), extended to both the L2 and L3 levels as in the paper's
 * Figure 17 comparison.
 *
 * PIPP manages a *shared* cache without explicit way partitioning:
 * a UMON-style utility monitor per core learns each core's
 * hit-vs-ways curve on sampled sets through an auxiliary tag
 * directory; a UCP lookahead allocation converts the curves into
 * per-core target allocations pi_i; core i then *inserts* new
 * lines at LRU-stack position pi_i and *promotes* hits by a single
 * stack position with probability p_prom, so cores implicitly
 * converge toward their allocations.
 */

#ifndef MORPHCACHE_BASELINES_PIPP_HH
#define MORPHCACHE_BASELINES_PIPP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "hierarchy/cache_level.hh"
#include "sim/memory_system.hh"

namespace morphcache {

/**
 * Per-core utility monitor: an auxiliary tag directory over sampled
 * sets modelling "this core owns the whole cache", with hit
 * counters per LRU-stack position.
 */
class UtilityMonitor
{
  public:
    /**
     * @param num_sets Sets of the monitored (whole-group) cache.
     * @param total_ways Combined ways of the group.
     * @param sample_shift Sample every 2^sample_shift-th set.
     */
    UtilityMonitor(std::uint64_t num_sets, std::uint32_t total_ways,
                   std::uint32_t sample_shift = 5);

    /** Feed one access (hit or miss in the real cache). */
    void access(Addr line_addr);

    /** Hits observed at each stack position (0 = MRU). */
    const std::vector<std::uint64_t> &hits() const { return hits_; }

    /** Cumulative utility of owning `ways` ways. */
    std::uint64_t utility(std::uint32_t ways) const;

    /** Epoch decay: halve all counters. */
    void decay();

    /** Serialize ATD stacks + hit counters. */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("UMON stack count", self.stacks_.size());
        // Loading fills each stack in place, so the capacity of
        // totalWays_ + 1 reserved at construction survives and the
        // post-resume hot path stays allocation-free.
        for (auto &stack : self.stacks_)
            ar.vecAtMost("UMON stack depth", stack, self.totalWays_);
        ar.fixedVec("UMON hit-counter size", self.hits_);
    }

    std::uint64_t numSets_;     // ckpt: derived(UtilityMonitor)
    std::uint32_t totalWays_;   // ckpt: derived(UtilityMonitor)
    std::uint32_t sampleShift_; // ckpt: derived(UtilityMonitor)
    /** ATD stacks, MRU at front; one per sampled set. */
    std::vector<std::vector<Addr>> stacks_;
    std::vector<std::uint64_t> hits_;
};

/**
 * UCP lookahead allocation: distribute `total_ways` among cores to
 * maximize monitored utility, each core receiving at least one way.
 * The result lands in `alloc` (one entry per monitor). `prefix` is
 * caller-owned scratch for the utility prefix sums; both buffers
 * are reused as they are, so callers that keep them reserved
 * (cores entries, cores x (total_ways + 1) sums) never allocate.
 */
void lookaheadAllocate(const std::vector<UtilityMonitor> &monitors,
                       std::uint32_t total_ways,
                       std::vector<std::uint32_t> &alloc,
                       std::vector<std::uint64_t> &prefix);

/**
 * PIPP policy hooks for one cache level.
 */
class PippPolicy : public LevelHooks
{
  public:
    /**
     * @param num_cores Cores sharing the level.
     * @param num_sets Sets per slice.
     * @param total_ways Combined group ways.
     * @param promotion_prob Single-step promotion probability
     *        (paper value 3/4).
     * @param seed Deterministic seed for the promotion coin.
     */
    PippPolicy(std::uint32_t num_cores, std::uint64_t num_sets,
               std::uint32_t total_ways, double promotion_prob,
               std::uint64_t seed);

    bool hit(CacheLevelModel &level, CoreId core, Addr line_addr,
             SliceId slice, std::uint64_t set,
             std::uint32_t way) override;
    void miss(CacheLevelModel &level, CoreId core,
              Addr line_addr) override;
    bool insert(CacheLevelModel &level, CoreId core, Addr line_addr,
                bool dirty, InsertOutcome &out) override;
    /** Stack inserts and promotions read the level's recency order. */
    bool wantsRecencyOrder() const override { return true; }

    /** Recompute allocations from the monitors. */
    void epochBoundary() override;

    /** Current allocation of one core (tests). */
    std::uint32_t allocation(CoreId core) const;

    /** Serialize promotion coin + monitors + allocations. */
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
        ar.nested(self.rng_);
        ar.expectU64("UMON monitor count", self.monitors_.size());
        for (auto &monitor : self.monitors_)
            ar.nested(monitor);
        ar.fixedVec("PIPP allocation size", self.alloc_);
    }

    std::uint32_t totalWays_;  // ckpt: derived(PippPolicy)
    /** The promotion probability as an Rng::chanceThreshold. */
    std::uint64_t promotionCut_; // ckpt: derived(PippPolicy)
    Rng rng_;
    std::vector<UtilityMonitor> monitors_;
    std::vector<std::uint32_t> alloc_;
    /** lookaheadAllocate's prefix sums (reserved at construction). */
    // ckpt: transient(reusable scratch; rewritten by every epochBoundary)
    std::vector<std::uint64_t> prefixScratch_;
};

/**
 * The PIPP memory system: the all-shared (16:1:1) topology,
 * non-inclusive, with PIPP managing both the L2 and the L3. PIPP is
 * evaluated as a conventional shared-cache design with the fixed
 * static latencies of Section 4: no remote premium.
 */
std::unique_ptr<StaticTopologySystem>
makePippSystem(HierarchyParams params);

} // namespace morphcache

#endif // MORPHCACHE_BASELINES_PIPP_HH
