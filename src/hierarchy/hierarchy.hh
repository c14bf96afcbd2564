/**
 * @file
 * The full three-level MorphCache hierarchy.
 *
 * Private per-core L1s sit above two reconfigurable levels (L2, L3)
 * of per-core slices. The hierarchy is inclusive (L1 within the
 * core's L2 group, L2 group within its backing L3 group) with
 * back-invalidation on lower-level evictions, exactly the design
 * point the paper adopts to keep coherence simple (Section 2.2).
 * For multithreaded address spaces, a write-invalidate protocol is
 * modelled across sharing groups, and an L3-group miss may be
 * served by a cache-to-cache transfer from another group.
 *
 * The whole object is value-semantic: copying it checkpoints the
 * complete cache state, which is how the ideal offline scheme of
 * Figure 15 re-runs an epoch under many topologies. Slice views are
 * made from its stores on demand and never kept, so a copy shares
 * nothing with the original.
 */

#ifndef MORPHCACHE_HIERARCHY_HIERARCHY_HH
#define MORPHCACHE_HIERARCHY_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "hierarchy/cache_level.hh"
#include "hierarchy/topology.hh"
#include "mem/slice.hh"

namespace morphcache {

/** Where an access was finally served from. */
enum class ServedBy : std::uint8_t {
    L1,
    L2Local,
    L2Remote,
    L3Local,
    L3Remote,
    /** Cache-to-cache transfer from another sharing group. */
    OtherGroup,
    Memory,
};

/** Result of one memory access through the hierarchy. */
struct AccessResult
{
    /** Total CPU-cycle latency of the access. */
    Cycle latency = 0;
    /** Level/location that supplied the data. */
    ServedBy servedBy = ServedBy::L1;
};

/** Per-core access counters. */
struct CoreStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2LocalHits = 0;
    std::uint64_t l2RemoteHits = 0;
    std::uint64_t l3LocalHits = 0;
    std::uint64_t l3RemoteHits = 0;
    std::uint64_t otherGroupTransfers = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t writebacks = 0;
    /** Sum of access latencies (cycles). */
    std::uint64_t totalLatency = 0;

    /** Total misses past the private L1 that reached memory. */
    std::uint64_t misses() const { return memAccesses; }
};

/**
 * Configuration of the whole hierarchy; the member initializers are
 * Table 3 at 16 cores. The L1 hit, memory and cache-to-cache
 * transfer latencies are constants in hierarchy.cc.
 */
struct HierarchyParams
{
    std::uint32_t numCores = 16;
    /** Private L1 (Table 3: 32 KB, 4-way, 64 B). */
    CacheGeometry l1Geom{32 * 1024, 4, 64};
    /** L2 level (Table 3: 16 x 256 KB 8-way, 10/25 cycles). */
    LevelParams l2{.sliceGeom = {256 * 1024, 8, 64}};
    /** L3 level (Table 3: 16 x 1 MB 16-way, 30/45 cycles). */
    LevelParams l3{.name = "L3",
                   .sliceGeom = {1024 * 1024, 16, 64},
                   .localHitLatency = 30};
    /**
     * Model a shared address space: writes invalidate copies held
     * by other cores/groups, and L3-group misses snoop the other
     * groups before going to memory. Enabled for multithreaded
     * workloads; the MorphCache controller's data-sharing merges
     * (condition (ii)) read it too.
     */
    bool coherence = false;
    /**
     * Enforce inclusion with back-invalidation (the paper's design
     * point, Section 2.2). The PIPP/DSR baselines run
     * non-inclusive (NINE) like their original proposals, so their
     * replacement decisions are not amplified by inclusion victims.
     */
    bool inclusive = true;

    /** Table 3 for a given core count (one slice per core). */
    static HierarchyParams defaultParams(std::uint32_t num_cores = 16);

    /**
     * Validate the whole parameter set: power-of-two capacities and
     * line sizes, associativity within the slice's line count, line
     * sizes consistent across levels, slice counts matching the core
     * count, nonzero latencies. Throws ConfigError naming the
     * offending field; Hierarchy's constructor calls this, so a bad
     * configuration fails loudly instead of corrupting indexing
     * arithmetic.
     */
    void validate() const;
};

/**
 * The complete reconfigurable cache hierarchy.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params);

    /** Parameters in effect. */
    const HierarchyParams &params() const { return params_; }

    /**
     * Apply a topology; fatal() on the rulebook's first finding
     * (topologyFindings() under ShapeRule::Any).
     */
    void reconfigure(const Topology &topology);

    /** Topology currently in effect. */
    const Topology &topology() const { return topology_; }

    /**
     * Perform one memory access.
     * @param access The reference (core, address, read/write).
     * @param now Current CPU cycle of the issuing core.
     */
    AccessResult access(const MemAccess &access, Cycle now);

    /** L2 level (footprint queries for the controller). */
    CacheLevelModel &l2() { return l2_; }
    const CacheLevelModel &l2() const { return l2_; }

    /** L3 level. */
    CacheLevelModel &l3() { return l3_; }
    const CacheLevelModel &l3() const { return l3_; }

    /** Per-core counters. */
    const CoreStats &coreStats(CoreId core) const;

    /**
     * Register the whole hierarchy onto a stats registry:
     * `sim.coreN.*` for the per-core counters, `hier.l2.*` /
     * `hier.l3.*` for the level tallies (incl. per-slice fills,
     * occupancy, and ACF popcounts), and `bus.l2.*` / `bus.l3.*`
     * for the segmented buses. The hierarchy must outlive the
     * registry's sampling.
     */
    void registerStats(StatsRegistry &registry) const;

    /** Reset per-core counters (epoch bookkeeping). */
    void resetCoreStats();

    /** Epoch boundary: reset all footprint estimators. */
    void resetFootprints();

    /** Number of cores. */
    std::uint32_t numCores() const { return params_.numCores; }

    /** View of one core's L1 (tests). */
    CacheSlice l1(CoreId core);

    /**
     * Serialize the complete cache state: topology, L1 slices, both
     * reconfigurable levels, per-core counters, L1 recency stamp.
     * loadState() installs the saved topology *directly* (the level
     * loadState calls replay configure() themselves) — it must not
     * go through reconfigure(), which moves lines and enforces
     * inclusion against the state being replaced.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    /** Install a line into the L1, handling the L1 victim. */
    void fillL1(CoreId core, Addr line_addr, bool dirty);

    /** Install into the core's L2 group, handling inclusion. */
    void fillL2(CoreId core, Addr line_addr, bool dirty);

    /** Install into the core's L3 group, handling inclusion. */
    void fillL3(CoreId core, Addr line_addr, bool dirty);

    /**
     * Drop a line from the L1s of the cores in `level`'s group `g`
     * (back-invalidation). @return true if a dropped copy was dirty.
     */
    bool invalidateL1s(const CacheLevelModel &level, std::uint32_t g,
                       Addr line_addr);

    /** Write-invalidate broadcast for a shared-line write. */
    void coherenceInvalidate(CoreId writer, Addr line_addr);

    /**
     * Re-establish inclusion after a reconfiguration; `old_l3` is
     * each slice's L3 group before it.
     */
    void enforceInclusion(const std::vector<std::uint32_t> &old_l3);

    HierarchyParams params_; // ckpt: derived(Hierarchy)
    /**
     * exactLog2(l1Geom.lineBytes), cached so the per-access
     * byte-to-line conversion is a plain shift (line sizes match
     * across levels, validated at construction).
     */
    unsigned lineShift_ = 0; // ckpt: derived(Hierarchy)
    /** Every core's private L1, one store (SliceStore). */
    SliceStore l1s_;
    CacheLevelModel l2_;
    CacheLevelModel l3_;
    Topology topology_;
    std::vector<CoreStats> coreStats_;
    std::uint64_t l1Stamp_ = 0;
};

} // namespace morphcache

#endif // MORPHCACHE_HIERARCHY_HIERARCHY_HH
