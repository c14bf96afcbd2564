/**
 * @file
 * One reconfigurable level (L2 or L3) of the MorphCache hierarchy.
 *
 * A level owns its physical slices, the sharing partition currently
 * in effect, the segmented bus connecting the slices, and the ACFV
 * bank (one vector per core per slice, in one array of words). All
 * group-aware operations — local-then-remote lookup with lazy
 * invalidation of merge duplicates, group-wide victim choice, group
 * utilization and overlap queries — live here.
 */

#ifndef MORPHCACHE_HIERARCHY_CACHE_LEVEL_HH
#define MORPHCACHE_HIERARCHY_CACHE_LEVEL_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "acf/acfv.hh"
#include "common/types.hh"
#include "hierarchy/topology.hh"
#include "interconnect/segmented_bus.hh"
#include "mem/slice.hh"

namespace morphcache {

class StatsRegistry;

/**
 * What a hit in another slice of the requester's group, or a
 * merged group's miss broadcast, costs on top of the local hit
 * latency. Each value is one design's interconnect.
 */
enum class RemoteCost : std::uint8_t {
    /**
     * MorphCache's segmented bus: a remote hit is one transaction
     * (busTxnCpuCycles, 15) and a merged group's miss broadcast a
     * request-only one (busRequestCpuCycles, 10), each after
     * queueing on the group's segment, plus the group's span
     * stretch.
     */
    Bus,
    /**
     * A fixed fabric: a remote hit pays one transaction's
     * busTxnCpuCycles, with no queueing and free miss broadcasts.
     * The static topologies, DSR and the ideal offline oracle.
     */
    Premium,
    /**
     * The paper's flat latencies (Section 4): a remote hit costs a
     * local one. PIPP, UCP and the paper-flat statics of the
     * latency-model ablation.
     */
    None,
};

/**
 * Configuration of one cache level. Of the interconnect, a level
 * chooses only its remote cost and how long a bus transaction
 * holds its segment; the transaction latencies are delay_model.hh's.
 */
struct LevelParams
{
    /** Human-readable name ("L2"/"L3") for messages. */
    const char *name = "L2";
    /** Number of physical slices (== cores in this design). */
    std::uint32_t numSlices = 16;
    /** Geometry of each slice. */
    CacheGeometry sliceGeom;
    /** Intra-slice replacement policy. */
    ReplPolicy policy = ReplPolicy::LRU;
    /** Latency of a hit in the requester's own slice (CPU cycles). */
    Cycle localHitLatency = 10;
    /** What remote-slice traffic costs (see RemoteCost). */
    RemoteCost remoteCost = RemoteCost::Bus;
    /**
     * CPU cycles one bus transaction holds its segment (RemoteCost::Bus
     * only). By default the one-bus-cycle data phase: arbitration of
     * the next transaction overlaps the earlier phases (the footnote-2
     * observation taken to split transactions), while the requester
     * still waits the whole transaction. The fast scale shrinks it to
     * 1 with the capacities; busTxnCpuCycles serializes whole
     * transactions.
     */
    Cycle busOccupancyCycles = cpuCyclesPerBusCycle;
    /** ACFV length in bits. */
    std::uint32_t acfvBits = 128;
    /**
     * ACFV hash family. Fibonacci (multiplicative) by default: it
     * keeps |ACFV| linear in region-structured footprints while
     * decorrelating unrelated address regions, which the sharing
     * test (common 1s) depends on. The paper's XOR and modulo
     * families are compared against it in the Figure 5 bench.
     */
    HashKind acfvHash = HashKind::Fibonacci;
    /** Track exact per-core-per-slice footprints (oracle ACF). */
    bool trackOracle = false;
};

/** Aggregate counters for one level. */
struct LevelStats
{
    std::uint64_t localHits = 0;
    std::uint64_t remoteHits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lazyInvalidations = 0;
    std::uint64_t coherenceInvalidations = 0;
    std::uint64_t inclusionInvalidations = 0;
    /** Physical slice probes performed (lookups + fills). */
    std::uint64_t sliceProbes = 0;
    /** Interconnect events (remote hits + group-miss broadcasts). */
    std::uint64_t busEvents = 0;
    /** Sum of the physical segment spans those events drove. */
    std::uint64_t busSpanTiles = 0;
};

/** Outcome of a group lookup. */
struct LookupOutcome
{
    /** Whether the line was found in the requester's group. */
    bool hit = false;
    /** Slice that held it (valid when hit). */
    SliceId slice = invalidSlice;
    /** Hit was in a slice other than the requester's own. */
    bool remote = false;
    /** CPU cycles this level contributed. */
    Cycle latency = 0;
};

/** Outcome of a group insertion. */
struct InsertOutcome
{
    /** Slice the line was installed into. */
    SliceId slice = invalidSlice;
    /** What the installation displaced. */
    Eviction evicted;
    /** Slice the displaced line lived in (== slice). */
    SliceId evictedFrom = invalidSlice;
};

class CacheLevelModel;

/**
 * Replacement/insertion policy hooks.
 *
 * The default behaviour (move-to-MRU on hit, MRU insertion at a
 * group-LRU victim) matches the paper's MorphCache and static
 * configurations. The PIPP, UCP and DSR baselines of Figure 17
 * override these callbacks and drive the level through its policy
 * primitives (insertAtStackPosition, promoteByOne, fillAt,
 * insertIntoSlice); PIPP and UCP also read its recency order.
 * The system that owns a policy (StaticTopologySystem) calls its
 * epoch and checkpoint callbacks.
 */
class LevelHooks
{
  public:
    virtual ~LevelHooks() = default;

    /**
     * Called on a group hit before the default promotion.
     * @return true to apply the default move-to-MRU.
     */
    virtual bool
    hit(CacheLevelModel &level, CoreId core, Addr line_addr,
        SliceId slice, std::uint64_t set, std::uint32_t way)
    {
        (void)level;
        (void)core;
        (void)line_addr;
        (void)slice;
        (void)set;
        (void)way;
        return true;
    }

    /** Called on a group miss (for monitors). */
    virtual void
    miss(CacheLevelModel &level, CoreId core, Addr line_addr)
    {
        (void)level;
        (void)core;
        (void)line_addr;
    }

    /**
     * Called instead of the default insertion when it returns true
     * (with `out` filled in).
     */
    virtual bool
    insert(CacheLevelModel &level, CoreId core, Addr line_addr,
           bool dirty, InsertOutcome &out)
    {
        (void)level;
        (void)core;
        (void)line_addr;
        (void)dirty;
        (void)out;
        return false;
    }

    /**
     * Whether the policy reads the level's recency order
     * (CacheLevelModel::recencyOrder). setHooks() builds that index
     * only for hooks that ask for it.
     */
    virtual bool wantsRecencyOrder() const { return false; }

    /** Called after every epoch (monitor decay, reallocation). */
    virtual void epochBoundary() {}

    /** Serialize/restore the policy's mutable state. */
    virtual void saveState(CkptWriter &w) const { (void)w; }
    virtual void loadState(CkptReader &r) { (void)r; }
};

/**
 * A reconfigurable cache level.
 */
class CacheLevelModel
{
  public:
    explicit CacheLevelModel(const LevelParams &params);

    /** Level parameters. */
    const LevelParams &params() const { return params_; }

    /** Apply a new sharing partition. */
    void configure(const Partition &partition);

    /** Partition currently in effect. */
    const Partition &partition() const { return partition_; }

    /** Group index a slice currently belongs to. */
    std::uint32_t groupOf(SliceId slice) const;

    /** Slices of the group that `core` can access. */
    const std::vector<SliceId> &groupSlices(CoreId core) const;

    /**
     * Look up `line_addr` for `core`: probe the core's own slice,
     * then (over the bus) the rest of its group, performing lazy
     * invalidation if merge duplicates are found. Updates recency
     * and the requesting core's ACFV on a hit.
     *
     * @param now Current CPU cycle (for bus queueing).
     */
    LookupOutcome lookup(CoreId core, Addr line_addr, Cycle now);

    /**
     * Install `line_addr` into `core`'s group: an invalid way in
     * the core's own slice is preferred, then invalid ways in other
     * member slices, then the group-wide replacement victim.
     */
    InsertOutcome insert(CoreId core, Addr line_addr, bool dirty);

    /**
     * PIPP primitive: install at LRU-stack position `position`
     * (0 = LRU) within the group's combined ways, evicting the
     * group-LRU victim if no invalid way exists. Builds the recency
     * index if no hooks asked for it yet.
     */
    InsertOutcome insertAtStackPosition(CoreId core, Addr line_addr,
                                        bool dirty,
                                        std::uint32_t position);

    /**
     * PIPP primitive: promote a resident line by one LRU-stack
     * position (swap recency with its immediate upward neighbour).
     * Builds the recency index if no hooks asked for it yet.
     */
    void promoteByOne(SliceId slice, std::uint64_t set,
                      std::uint32_t way);

    /**
     * DSR primitive: install into one specific slice only, evicting
     * that slice's own victim.
     */
    InsertOutcome insertIntoSlice(CoreId core, SliceId target,
                                  Addr line_addr, bool dirty);

    /**
     * UCP primitive: install into an exact (slice, way), displacing
     * whatever is there. The caller owns victim selection.
     */
    InsertOutcome fillAt(CoreId core, SliceId target,
                         std::uint32_t way, Addr line_addr,
                         bool dirty);

    /**
     * Attach policy hooks (not owned; nullptr restores default).
     * Builds the recency index when the hooks ask for it; once
     * built, the index is kept up to date for the level's lifetime.
     */
    void setHooks(LevelHooks *hooks);

    // --- Recency index (PIPP/UCP) ---------------------------------

    /** A way of a group: the slice holding it and its way there. */
    struct GroupWay
    {
        SliceId slice;
        std::uint32_t way;
    };

    /** Whether the recency index exists. */
    bool hasRecencyIndex() const { return recency_.has_value(); }

    /**
     * The valid ways of (group, set) from LRU to MRU: recency keys
     * ((slice - the group's lowest slice) x assoc + way) sorted by
     * (stamp, key), which is the member-major, way-minor tie order
     * of a scan over the group. Requires the recency index.
     */
    std::span<const std::uint16_t>
    recencyOrder(std::uint32_t group, std::uint64_t set) const
    {
        MC_ASSERT(recency_);
        return {&recency_->keys[recencySlot(group, set)],
                recency_->count[group * numSets_ + set]};
    }

    /** The slice and way a recency key of `group` names. */
    GroupWay
    recencyWay(std::uint32_t group, std::uint16_t key) const
    {
        const std::uint32_t offset = recency_->keyOffset[key];
        return {static_cast<SliceId>(groupLo_[group] + offset),
                key - offset * params_.sliceGeom.assoc};
    }

    /**
     * Mark a resident line dirty (writeback from above): the first
     * member of `core`'s group, in group order, that holds it.
     */
    bool markDirty(CoreId core, Addr line_addr);

    /** Is the line resident anywhere in `core`'s group? */
    bool presentInGroup(CoreId core, Addr line_addr) const;

    /**
     * Find the line in any group other than `core`'s (coherence
     * snoop for shared address spaces).
     */
    std::optional<SliceId> findInOtherGroups(CoreId core,
                                             Addr line_addr) const;

    /**
     * Invalidate the line from the given slices (inclusion
     * back-invalidation). @return true if a dirty copy was dropped.
     */
    bool invalidateInSlices(std::span<const SliceId> slices,
                            Addr line_addr);

    /**
     * Invalidate copies of the line held outside `core`'s group
     * (write-invalidate broadcast). @return dirty-copy flag.
     */
    bool invalidateOutsideGroup(CoreId core, Addr line_addr);

    /**
     * Calls visit(member) for each member of group `g` whose slice in
     * `store` may hold `line_addr`, in ascending slice order, until a
     * call returns true: SliceStore::forEachCandidate over the group's
     * physical span, skipping the non-members inside it. `store` is
     * this level's or one with a slice per slice of it (the L1s).
     * @return Whether a call returned true.
     */
    template <typename Visit>
    bool
    forEachCandidateMember(const SliceStore &store, std::uint32_t g,
                           Addr line_addr, Visit &&visit) const
    {
        return store.forEachCandidate(
            line_addr, groupLo_[g], groupSpanTiles_[g],
            [&](SliceId s) { return groupOf_[s] == g && visit(s); });
    }

    /** View of one slice (tests, reconfiguration walks). */
    CacheSlice slice(SliceId id);
    ConstCacheSlice slice(SliceId id) const;

    /** Number of slices. */
    std::uint32_t numSlices() const { return params_.numSlices; }

    /** Mutable statistics. */
    LevelStats &stats() { return stats_; }
    const LevelStats &stats() const { return stats_; }

    /**
     * Register this level's tallies onto a stats registry:
     * `<prefix>.<counter>` for the LevelStats fields,
     * `<prefix>.sliceK.{fills,validLines,acfPopcount}` per slice,
     * and `<busPrefix>.{transactions,queueCycles}` plus
     * `<busPrefix>.segK.{transactions,queueCycles}` for the
     * segmented bus. Bound by reference: the level must outlive
     * the registry's sampling.
     */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix,
                       const std::string &busPrefix) const;

    /** Bus (for contention statistics). */
    const SegmentedBus &bus() const { return bus_; }

    // --- ACFV bank ----------------------------------------------

    /** The ACFVs of every (core, slice). */
    const AcfvBank &acfvs() const { return acfvs_; }

    /**
     * Invert one ACFV bit (fault injection: a soft error in the
     * footprint-vector storage of this level).
     */
    void flipAcfvBit(CoreId core, SliceId slice, std::uint32_t bit);

    /**
     * Attach a grant-fault hook to this level's segmented bus
     * (fault injection; not owned; nullptr restores a clean bus).
     */
    void setBusFaultHook(BusFaultHook *hook);

    /** Exact footprint size of (core, slice); oracle mode only. */
    std::uint64_t oracleAcfSize(CoreId core, SliceId slice) const;

    /**
     * Fills into a set of slices since the last footprint reset,
     * normalized by their aggregate capacity. The QoS hardware of
     * Section 5.3 already maintains per-slice miss registers; this
     * reuses them as a churn signal: an under-utilized slice whose
     * fill pressure is high is a streaming victim cache, not spare
     * capacity.
     */
    double fillPressure(const std::vector<SliceId> &slices) const;

    /** Epoch boundary: reset all ACFVs (and oracle sets). */
    void resetFootprints();

    /** Footprint unit in lines: the slice's set count (the tag). */
    std::uint32_t acfvGranularity() const { return acfvGranularity_; }

    /**
     * Serialize the complete mutable level state: partition, slice
     * contents + replacement state, ACFV bank, fill counters, bus
     * occupancy, recency stamp, and statistics. loadState() first
     * replays configure() on the saved partition (rebuilding every
     * derived table: groupOf_, span penalties, bus segmentation),
     * then overwrites the state configure() resets.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /** Everything after the partition, in checkpoint order. */
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    std::uint64_t nextStamp() { return ++stamp_; }

    /**
     * Invalidate the line in one slice if present: CacheSlice's
     * invalidate(), keeping the recency index in step.
     */
    Eviction
    invalidateLine(SliceId slice, Addr line_addr)
    {
        const CacheSlice view = store_.slice(slice);
        const std::uint32_t way = view.probe(line_addr);
        if (way == params_.sliceGeom.assoc)
            return {};
        const std::uint64_t set = view.setIndex(line_addr);
        if (recency_)
            recencyDrop(slice, set, way);
        return view.invalidateAt(set, way);
    }

    /** Allocate and build the recency index if it does not exist. */
    void ensureRecencyIndex();

    /**
     * Calls visit(slice) for each slice of `slices` that may hold
     * `line_addr` (the matcher over their physical span), in
     * ascending slice order, until a call returns true.
     */
    template <typename Visit>
    bool
    forEachCandidateIn(std::span<const SliceId> slices, Addr line_addr,
                       Visit &&visit) const
    {
        if (slices.empty())
            return false;
        const auto [lo, hi] = std::minmax_element(slices.begin(),
                                                  slices.end());
        return store_.forEachCandidate(
            line_addr, *lo, std::uint32_t{*hi} - *lo + 1, [&](SliceId s) {
                return std::find(slices.begin(), slices.end(), s) !=
                           slices.end() &&
                       visit(s);
            });
    }

    /** Refill the recency index in place from the slices. */
    void rebuildRecencyIndex();

    /** Offset of (group, set)'s first slot in the recency index. */
    std::size_t
    recencySlot(std::uint32_t group, std::uint64_t set) const
    {
        return recency_->base[group] +
               set * partition_[group].size() * params_.sliceGeom.assoc;
    }

    /**
     * Recency key of (slice, way) within the slice's group. Members
     * ascend, so keys sort as member positions would.
     */
    std::uint16_t
    recencyKey(SliceId slice, std::uint32_t way) const
    {
        return static_cast<std::uint16_t>(
            (slice - groupLo_[groupOf_[slice]]) *
                params_.sliceGeom.assoc +
            way);
    }

    /** Stamp of the way a recency key of `group` names. */
    std::uint64_t
    keyStamp(std::uint32_t group, std::uint64_t set,
             std::uint16_t key) const
    {
        const GroupWay gw = recencyWay(group, key);
        return store_.slice(gw.slice).stampAt(set, gw.way);
    }

    /**
     * First slot in keys[lo, hi) of (group, set) whose (stamp, key)
     * is not below (stamp, key).
     */
    std::size_t recencyLowerBound(std::uint32_t group,
                                  std::uint64_t set,
                                  const std::uint16_t *keys,
                                  std::size_t lo, std::size_t hi,
                                  std::uint64_t stamp,
                                  std::uint16_t key) const;

    /*
     * Recency index upkeep. Each runs before the slice mutation it
     * mirrors, while every stamp in the set is still the one the
     * index is sorted by.
     */

    /** An invalid (slice, way) is about to be filled with `stamp`. */
    void recencyAdd(SliceId slice, std::uint64_t set,
                    std::uint32_t way, std::uint64_t stamp);

    /** A valid (slice, way) is about to be invalidated. */
    void recencyDrop(SliceId slice, std::uint64_t set,
                     std::uint32_t way);

    /** A valid (slice, way) is about to take stamp `stamp`. */
    void recencyRestamp(SliceId slice, std::uint64_t set,
                        std::uint32_t way, std::uint64_t stamp);

    /** Shared tail of all insertion paths. */
    InsertOutcome fillInto(CoreId core, SliceId target,
                           std::uint32_t way, Addr line_addr,
                           bool dirty, std::uint64_t stamp);

    /**
     * Footprint bookkeeping for an eviction: clears the granule
     * bit only when the departing line was never reused (stale or
     * streaming data, per Section 2.1's reuse-centric ACF).
     */
    void noteEviction(SliceId slice, Addr line_addr, bool reused);

    LevelParams params_;            // ckpt: derived(CacheLevelModel)
    std::uint32_t acfvGranularity_ = 1; // ckpt: derived(CacheLevelModel)
    /**
     * exactLog2(acfvGranularity_): the granularity is asserted
     * power-of-2 at construction, so the per-reference line-to-unit
     * division is a shift.
     */
    unsigned acfvGranShift_ = 0; // ckpt: derived(CacheLevelModel)
    /** Every slice's lines, set-major (SliceStore). */
    SliceStore store_;
    /** Sets per slice (one geometry per level). */
    std::uint64_t numSets_ = 0; // ckpt: derived(CacheLevelModel)
    Partition partition_;
    std::vector<std::uint32_t> groupOf_; // ckpt: derived(configure)
    /** Extra remote cycles per slice from physical-span stretch. */
    // ckpt: derived(configure)
    std::vector<Cycle> spanExtraCycles_;
    /**
     * Physical span (tiles) of each group (energy accounting; the
     * run of slices a group walk matches).
     */
    // ckpt: derived(configure)
    std::vector<std::uint32_t> groupSpanTiles_;
    /** Lowest slice of each group (where its span starts). */
    // ckpt: derived(configure)
    std::vector<SliceId> groupLo_;
    SegmentedBus bus_;
    AcfvBank acfvs_;
    std::vector<OracleAcf> oracles_;
    /** Per-slice fill counts since the last footprint reset. */
    std::vector<std::uint64_t> sliceFills_;
    /** Per-group round-robin rotor for PLRU victim slice choice. */
    std::vector<std::uint32_t> groupRotor_;
    std::uint64_t stamp_ = 0;
    LevelStats stats_;
    /** Optional policy hooks (PIPP/DSR baselines); not owned. */
    LevelHooks *hooks_ = nullptr; // ckpt: transient(wiring; reattached by owner)

    /**
     * Recency index: for every (group, set), the keys of its valid
     * ways in (stamp, key) order (DESIGN.md section 13). Exactly
     * derived from the slices' valid bits and stamps; sized once for
     * the whole level, so configure() and loadState() refill it
     * without allocating.
     */
    struct RecencyIndex
    {
        /**
         * Keys, group-major then set-major: group g's set s starts at
         * base[g] + s * |g| * assoc and holds count[g * sets + s].
         */
        std::vector<std::uint16_t> keys;
        /** Valid ways per (group, set). */
        std::vector<std::uint16_t> count;
        /** First slot of each group. */
        std::vector<std::size_t> base;
        /** Slice offset of each key from its group's lowest slice. */
        std::vector<std::uint16_t> keyOffset;
    };
    // ckpt: derived(rebuildRecencyIndex)
    std::optional<RecencyIndex> recency_;
};

} // namespace morphcache

#endif // MORPHCACHE_HIERARCHY_CACHE_LEVEL_HH
