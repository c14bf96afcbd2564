/**
 * @file
 * Utility-based Cache Partitioning (Qureshi & Patt, MICRO 2006
 * [20]), extended to both shared levels like the paper's other
 * single-level baselines.
 *
 * UCP partitions the ways of a shared cache explicitly: the same
 * UMON monitors PIPP uses produce per-core utility curves, the
 * lookahead algorithm assigns way quotas, and replacement is
 * constrained to enforce them — a core over its quota must victim
 * one of its *own* lines. Where PIPP approximates the partition
 * through insertion positions, UCP enforces it exactly, which is
 * the contrast the paper's related-work discussion draws.
 */

#ifndef MORPHCACHE_BASELINES_UCP_HH
#define MORPHCACHE_BASELINES_UCP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/pipp.hh"
#include "hierarchy/cache_level.hh"
#include "sim/memory_system.hh"

namespace morphcache {

/**
 * UCP policy hooks for one shared cache level.
 *
 * Ownership is tracked per line (by the inserting core) in a
 * sidecar table so quotas can be enforced; hardware UCP keeps the
 * same information in per-line owner bits. The level must be
 * configured as one group of all its slices in slice order
 * (allShared), so a slice's member position is its id.
 */
class UcpPolicy : public LevelHooks
{
  public:
    /**
     * @param num_cores Cores sharing the level.
     * @param num_sets Sets per slice.
     * @param num_slices Slices in the shared group.
     * @param assoc Ways per slice.
     */
    UcpPolicy(std::uint32_t num_cores, std::uint64_t num_sets,
              std::uint32_t num_slices, std::uint32_t assoc);

    bool hit(CacheLevelModel &level, CoreId core, Addr line_addr,
             SliceId slice, std::uint64_t set,
             std::uint32_t way) override;
    void miss(CacheLevelModel &level, CoreId core,
              Addr line_addr) override;
    bool insert(CacheLevelModel &level, CoreId core, Addr line_addr,
                bool dirty, InsertOutcome &out) override;
    /** Victim choice walks the level's recency order. */
    bool wantsRecencyOrder() const override { return true; }

    /** Recompute quotas from the monitors. */
    void epochBoundary() override;

    /** Current quota of one core. */
    std::uint32_t quota(CoreId core) const;

    /** Serialize monitors + quotas + line-ownership sidecar. */
    void
    saveState(CkptWriter &w) const override
    {
        checkpointFields(w, *this);
    }

    void
    loadState(CkptReader &r) override
    {
        checkpointFields(r, *this);
        rebuildOwnedCounts();
    }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("UCP monitor count", self.monitors_.size());
        for (auto &monitor : self.monitors_)
            ar.nested(monitor);
        ar.fixedVec("UCP quota size", self.quota_);
        ar.expectU64("UCP owner-table size", self.owner_.size());
        for (auto &owner : self.owner_) {
            std::uint32_t v = owner;
            ar.u32(v);
            if constexpr (Ar::loading) {
                if (v >= self.numCores_ && v != invalidCore)
                    ar.fail("UCP line owner " + std::to_string(v) +
                            " out of range");
                owner = static_cast<CoreId>(v);
            }
        }
    }

    /** Sidecar index of (slice, set, way). */
    std::size_t ownerIndex(SliceId slice, std::uint64_t set,
                           std::uint32_t way) const;

    std::uint32_t numCores_;  // ckpt: derived(UcpPolicy)
    std::uint64_t numSets_;   // ckpt: derived(UcpPolicy)
    std::uint32_t numSlices_; // ckpt: derived(UcpPolicy)
    std::uint32_t assoc_;     // ckpt: derived(UcpPolicy)
    std::vector<UtilityMonitor> monitors_;
    std::vector<std::uint32_t> quota_;
    /** lookaheadAllocate's prefix sums (reserved at construction). */
    // ckpt: transient(reusable scratch; rewritten by every epochBoundary)
    std::vector<std::uint64_t> prefixScratch_;
    /** Owner core of each (slice, set, way); invalidCore if none. */
    std::vector<CoreId> owner_;
    /**
     * Incremental per-(set, core) tally of the owner table:
     * ownedCount_[set * numCores + c] == #{ways of `set` across all
     * slices whose owner_ entry is c}. Maintained at every owner_
     * write and rebuilt after loadState(), it lets insert() choose
     * its replacement branch before visiting a single line. The
     * tallies are only consulted for fully valid sets, where every
     * way's owner entry is current and equals exactly this count.
     */
    std::vector<std::uint32_t> ownedCount_; // ckpt: derived(rebuildOwnedCounts)

    /** Recompute ownedCount_ from owner_ (after a checkpoint load). */
    void rebuildOwnedCounts();
};

/**
 * The UCP memory system: the all-shared (16:1:1) topology,
 * non-inclusive, with exact way partitioning at both the L2 and the
 * L3 and the fixed static latencies of Section 4 (no remote
 * premium), like PIPP.
 */
std::unique_ptr<StaticTopologySystem>
makeUcpSystem(HierarchyParams params);

} // namespace morphcache

#endif // MORPHCACHE_BASELINES_UCP_HH
