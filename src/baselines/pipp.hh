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
    void
    saveState(CkptWriter &w) const
    {
        w.u64(stacks_.size());
        for (const std::vector<Addr> &stack : stacks_)
            w.u64Vec(stack);
        w.u64Vec(hits_);
    }

    void
    loadState(CkptReader &r)
    {
        r.expectU64("UMON stack count", stacks_.size());
        for (std::vector<Addr> &stack : stacks_) {
            const std::vector<Addr> loaded = r.u64Vec();
            if (loaded.size() > totalWays_)
                r.fail("UMON stack depth " +
                       std::to_string(loaded.size()) +
                       " exceeds group ways");
            // Copy into the existing buffer rather than adopting
            // `loaded`: the stacks are reserved to totalWays_ + 1
            // at construction and must keep that capacity so the
            // post-resume hot path stays allocation-free.
            stack.clear();
            stack.insert(stack.end(), loaded.begin(), loaded.end());
        }
        std::vector<std::uint64_t> hits = r.u64Vec();
        if (hits.size() != hits_.size())
            r.fail("UMON hit-counter size mismatch");
        hits_ = std::move(hits);
    }

  private:
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
        rng_.saveState(w);
        w.u64(monitors_.size());
        for (const UtilityMonitor &monitor : monitors_)
            monitor.saveState(w);
        w.u32Vec(alloc_);
    }

    void
    loadState(CkptReader &r) override
    {
        rng_.loadState(r);
        r.expectU64("UMON monitor count", monitors_.size());
        for (UtilityMonitor &monitor : monitors_)
            monitor.loadState(r);
        std::vector<std::uint32_t> alloc = r.u32Vec();
        if (alloc.size() != alloc_.size())
            r.fail("PIPP allocation size mismatch");
        alloc_ = std::move(alloc);
    }

  private:
    std::uint32_t totalWays_;  // ckpt: derived(PippPolicy)
    double promotionProb_;     // ckpt: derived(PippPolicy)
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
