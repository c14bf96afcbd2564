#include "hierarchy/cache_level.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hh"
#include "stats/registry.hh"

namespace morphcache {

CacheLevelModel::CacheLevelModel(const LevelParams &params)
    : params_(params),
      store_(params.numSlices, params.sliceGeom, params.policy),
      bus_(params.numSlices, params.busOccupancyCycles),
      acfvs_(params.numSlices, params.numSlices, params.acfvBits,
             params.acfvHash)
{
    MC_ASSERT(params_.numSlices > 0);
    MC_ASSERT(params_.sliceGeom.valid());
    // The paper hashes the *tag*: all lines of one set-span
    // (numSets consecutive lines) share a footprint unit. This is
    // what keeps sequential streams — whose resident window spans
    // few tags — from inflating the footprint estimate, while
    // scattered reuse-heavy footprints set many bits.
    acfvGranularity_ =
        static_cast<std::uint32_t>(params_.sliceGeom.numSets());
    MC_ASSERT(isPowerOf2(acfvGranularity_));
    acfvGranShift_ = exactLog2(acfvGranularity_);
    numSets_ = params_.sliceGeom.numSets();
    if (params_.trackOracle) {
        oracles_.resize(std::size_t{params_.numSlices} *
                        params_.numSlices);
    }
    sliceFills_.assign(params_.numSlices, 0);
    configure(allPrivate(params_.numSlices));
}

void
CacheLevelModel::configure(const Partition &partition)
{
    validatePartition(partition, params_.numSlices);
    partition_ = partition;
    groupOf_ = groupOfSlice(partition_, params_.numSlices);
    groupRotor_.assign(partition_.size(), 0);

    // Physical-span latency stretch (Section 5.5): a group whose
    // members are not adjacent must ride a physical segment spanning
    // every slice between its extremes; it pays these extra cycles
    // per tile of stretch beyond its own size.
    constexpr Cycle spanPenaltyCyclesPerTile = 2;
    spanExtraCycles_.assign(params_.numSlices, 0);
    groupSpanTiles_.assign(partition_.size(), 1);
    groupLo_.assign(partition_.size(), 0);
    std::vector<std::uint32_t> bus_group(params_.numSlices, 0);
    for (std::uint32_t g = 0; g < partition_.size(); ++g) {
        const auto &group = partition_[g];
        const std::uint32_t span =
            std::uint32_t{group.back()} - group.front() + 1;
        groupLo_[g] = group.front();
        groupSpanTiles_[g] = span;
        const auto size = static_cast<std::uint32_t>(group.size());
        const Cycle extra = Cycle{span - size} * spanPenaltyCyclesPerTile;
        for (SliceId member : group)
            spanExtraCycles_[member] = extra;
    }
    // Bus segments: groups sharing overlapping physical spans must
    // share one segment (they ride the same wires). Segment id per
    // slice: sweep left to right, extending the current segment while
    // any group's span covers the boundary.
    std::vector<SliceId> cover_until(params_.numSlices, 0);
    for (std::uint32_t i = 0; i < params_.numSlices; ++i)
        cover_until[i] = static_cast<SliceId>(i);
    for (std::uint32_t g = 0; g < partition_.size(); ++g) {
        const auto hi =
            static_cast<SliceId>(groupLo_[g] + groupSpanTiles_[g] - 1);
        for (SliceId s = groupLo_[g]; s <= hi; ++s)
            cover_until[s] = std::max(cover_until[s], hi);
    }
    std::uint32_t seg = 0;
    SliceId reach = 0;
    for (std::uint32_t s = 0; s < params_.numSlices; ++s) {
        if (s > reach) {
            ++seg;
            reach = static_cast<SliceId>(s);
        }
        reach = std::max<SliceId>(reach, cover_until[s]);
        bus_group[s] = seg;
    }
    bus_.configure(bus_group);
    if (recency_)
        rebuildRecencyIndex();
}

std::uint32_t
CacheLevelModel::groupOf(SliceId slice) const
{
    MC_ASSERT(slice < params_.numSlices);
    return groupOf_[slice];
}

const std::vector<SliceId> &
CacheLevelModel::groupSlices(CoreId core) const
{
    MC_ASSERT(core < params_.numSlices);
    return partition_[groupOf_[core]];
}

LookupOutcome
CacheLevelModel::lookup(CoreId core, Addr line_addr, Cycle now)
{
    LookupOutcome out;
    out.latency = params_.localHitLatency;

    const std::uint64_t set = store_.slice(core).setIndex(line_addr);
    const auto &group = groupSlices(core);
    stats_.sliceProbes += group.size(); // own + broadcast probes

    // Lazy invalidation (Section 2.2): if the line is duplicated
    // across member slices after a merge, keep one copy — the local
    // one if present, else the first member in group order — and
    // invalidate the rest the first time it is touched. One matcher
    // pass over the group's span names the candidate members in
    // group order (members ascend); only they are probed.
    const std::uint32_t assoc = params_.sliceGeom.assoc;
    SliceId hit_slice = invalidSlice;
    std::uint32_t hit_way = assoc;
    const auto walk = [&](SliceId member) {
        std::uint32_t way = store_.slice(member).probe(line_addr);
        if (way == assoc)
            return false;
        if (hit_slice == invalidSlice) {
            hit_slice = member;
            hit_way = way;
            return false;
        }
        // Duplicate: drop the later copy unless it is the local one.
        SliceId drop = member;
        if (member == core) {
            drop = std::exchange(hit_slice, member);
            way = std::exchange(hit_way, way);
        }
        if (recency_)
            recencyDrop(drop, set, way);
        const Eviction dup = store_.slice(drop).invalidateAt(set, way);
        noteEviction(drop, line_addr, dup.reused);
        ++stats_.lazyInvalidations;
        return false;
    };
    forEachCandidateMember(store_, groupOf_[core], line_addr, walk);

    if (hit_slice == invalidSlice) {
        // Miss. A merged group pays the request-only bus
        // transaction that broadcast the miss to the other member
        // slices (no data phase).
        if (group.size() > 1) {
            ++stats_.busEvents;
            stats_.busSpanTiles += groupSpanTiles_[groupOf_[core]];
            if (params_.remoteCost == RemoteCost::Bus) {
                out.latency += bus_.transactRequest(
                    static_cast<SliceId>(core), now + out.latency);
                out.latency += spanExtraCycles_[core];
            }
        }
        ++stats_.misses;
        if (hooks_)
            hooks_->miss(*this, core, line_addr);
        return out;
    }

    out.hit = true;
    out.slice = hit_slice;
    out.remote = (hit_slice != core);
    if (out.remote) {
        ++stats_.busEvents;
        stats_.busSpanTiles += groupSpanTiles_[groupOf_[core]];
        // A remote hit costs one bus transaction; 10 + 15 = the
        // paper's 25-cycle merged-hit latency.
        if (params_.remoteCost == RemoteCost::Bus) {
            out.latency += bus_.transact(static_cast<SliceId>(core),
                                         now + out.latency);
            out.latency += spanExtraCycles_[core];
        } else if (params_.remoteCost == RemoteCost::Premium) {
            out.latency += busTxnCpuCycles;
        }
    }
    if (out.remote)
        ++stats_.remoteHits;
    else
        ++stats_.localHits;

    bool default_promote = true;
    if (hooks_) {
        default_promote = hooks_->hit(*this, core, line_addr,
                                      hit_slice, set, hit_way);
    }
    if (default_promote) {
        const std::uint64_t stamp = nextStamp();
        if (recency_)
            recencyRestamp(hit_slice, set, hit_way, stamp);
        store_.slice(hit_slice).touch(set, hit_way, stamp);
    }
    acfvs_.set(core, hit_slice, line_addr >> acfvGranShift_);
    if (params_.trackOracle) {
        oracles_[std::size_t{hit_slice} * params_.numSlices + core]
            .set(line_addr);
    }
    return out;
}

InsertOutcome
CacheLevelModel::insert(CoreId core, Addr line_addr, bool dirty)
{
    InsertOutcome out;
    if (hooks_ && hooks_->insert(*this, core, line_addr, dirty, out))
        return out;
    const auto &group = groupSlices(core);
    const std::uint64_t set = store_.slice(core).setIndex(line_addr);

    // 1) Invalid way in the requester's own slice.
    // 2) Invalid way in any member slice.
    // 3) Group-wide replacement victim.
    SliceId target = invalidSlice;
    std::uint32_t target_way = 0;

    auto find_invalid = [&](SliceId member) -> bool {
        const std::uint32_t way =
            store_.slice(member).firstInvalidWay(set);
        if (way == params_.sliceGeom.assoc)
            return false;
        target = member;
        target_way = way;
        return true;
    };

    if (!find_invalid(static_cast<SliceId>(core))) {
        for (SliceId member : group) {
            if (member != core && find_invalid(member))
                break;
        }
    }

    if (target == invalidSlice) {
        if (params_.policy == ReplPolicy::LRU) {
            // Exact LRU across the merged ways (stamps compose).
            std::uint64_t oldest = ~std::uint64_t{0};
            for (SliceId member : group) {
                const CacheSlice view = store_.slice(member);
                const std::uint32_t way = view.victimWay(set);
                const std::uint64_t stamp = view.stampAt(set, way);
                if (stamp < oldest) {
                    oldest = stamp;
                    target = member;
                    target_way = way;
                }
            }
        } else {
            // Tree-PLRU per slice; rotate the victim slice so merged
            // groups spread replacements (the paper notes merged
            // trees converge quickly under further accesses).
            const std::uint32_t g = groupOf_[core];
            const std::uint32_t idx =
                groupRotor_[g]++ % static_cast<std::uint32_t>(
                                        group.size());
            target = group[idx];
            target_way = store_.slice(target).victimWay(set);
        }
    }

    MC_ASSERT(target != invalidSlice);
    return fillInto(core, target, target_way, line_addr, dirty,
                    nextStamp());
}

InsertOutcome
CacheLevelModel::fillInto(CoreId core, SliceId target,
                          std::uint32_t way, Addr line_addr,
                          bool dirty, std::uint64_t stamp)
{
    InsertOutcome out;
    const CacheSlice view = store_.slice(target);
    const std::uint64_t set = view.setIndex(line_addr);
    if (recency_) {
        if (view.validAt(set, way))
            recencyRestamp(target, set, way, stamp);
        else
            recencyAdd(target, set, way, stamp);
    }
    out.slice = target;
    out.evicted = view.fill(set, way, line_addr, dirty, stamp);
    out.evictedFrom = target;
    ++stats_.fills;
    ++stats_.sliceProbes;
    ++sliceFills_[target];
    if (out.evicted.valid) {
        ++stats_.evictions;
        noteEviction(target, out.evicted.lineAddr,
                     out.evicted.reused);
    }
    acfvs_.set(core, target, line_addr >> acfvGranShift_);
    if (params_.trackOracle) {
        oracles_[std::size_t{target} * params_.numSlices + core]
            .set(line_addr);
    }
    return out;
}

InsertOutcome
CacheLevelModel::insertAtStackPosition(CoreId core, Addr line_addr,
                                       bool dirty,
                                       std::uint32_t position)
{
    ensureRecencyIndex();
    const std::uint32_t g = groupOf_[core];
    const auto &group = partition_[g];
    const std::uint64_t set = store_.slice(core).setIndex(line_addr);
    const std::span<const std::uint16_t> order = recencyOrder(g, set);

    // The victim: the first member holding an invalid way, with its
    // lowest invalid way, else the group-LRU line at the front of
    // the recency order.
    SliceId target = invalidSlice;
    std::uint32_t target_way = 0;
    if (order.size() < group.size() * params_.sliceGeom.assoc) {
        for (SliceId member : group) {
            const std::uint32_t inv = store_.slice(member).firstInvalidWay(set);
            if (inv != params_.sliceGeom.assoc) {
                target = member;
                target_way = inv;
                break;
            }
        }
    }

    // The new line's recency equals that of the line currently at
    // LRU-stack `position` once the victim is gone, so it enters the
    // stack exactly there instead of at MRU. A valid victim is the
    // front of the order: dropping it shifts every rank up by one.
    std::size_t rank = position;
    if (target == invalidSlice) {
        const GroupWay lru = recencyWay(g, order.front());
        target = lru.slice;
        target_way = lru.way;
        ++rank;
    }
    const std::uint64_t stamp =
        rank < order.size() ? keyStamp(g, set, order[rank]) : nextStamp();
    return fillInto(core, target, target_way, line_addr, dirty,
                    stamp);
}

void
CacheLevelModel::promoteByOne(SliceId slice, std::uint64_t set,
                              std::uint32_t way)
{
    MC_ASSERT(store_.slice(slice).validAt(set, way));
    ensureRecencyIndex();
    const std::uint32_t g = groupOf_[slice];
    const std::span<const std::uint16_t> order = recencyOrder(g, set);
    const std::uint64_t line_stamp = store_.slice(slice).stampAt(set, way);

    // The immediate upward neighbour in the group's LRU stack is the
    // first key stamped after the line; swap recencies with it.
    const std::size_t up = recencyLowerBound(
        g, set, order.data(), 0, order.size(), line_stamp + 1, 0);
    if (up == order.size())
        return;
    const GroupWay above = recencyWay(g, order[up]);
    const std::uint64_t above_stamp =
        store_.slice(above.slice).stampAt(set, above.way);
    recencyRestamp(slice, set, way, above_stamp);
    store_.slice(slice).setStampAt(set, way, above_stamp);
    recencyRestamp(above.slice, set, above.way, line_stamp);
    store_.slice(above.slice).setStampAt(set, above.way, line_stamp);
}

InsertOutcome
CacheLevelModel::insertIntoSlice(CoreId core, SliceId target,
                                 Addr line_addr, bool dirty)
{
    MC_ASSERT(target < params_.numSlices);
    const CacheSlice view = store_.slice(target);
    const std::uint32_t way = view.victimWay(view.setIndex(line_addr));
    return fillInto(core, target, way, line_addr, dirty, nextStamp());
}

InsertOutcome
CacheLevelModel::fillAt(CoreId core, SliceId target,
                        std::uint32_t way, Addr line_addr, bool dirty)
{
    MC_ASSERT(target < params_.numSlices);
    MC_ASSERT(way < params_.sliceGeom.assoc);
    return fillInto(core, target, way, line_addr, dirty, nextStamp());
}

bool
CacheLevelModel::markDirty(CoreId core, Addr line_addr)
{
    // Absorb the writeback into the first member, in group order,
    // holding the line.
    return forEachCandidateMember(
        store_, groupOf(core), line_addr, [&](SliceId member) {
            const CacheSlice view = store_.slice(member);
            const std::uint32_t way = view.probe(line_addr);
            if (way == view.assoc())
                return false;
            view.setDirtyAt(view.setIndex(line_addr), way);
            return true;
        });
}

bool
CacheLevelModel::presentInGroup(CoreId core, Addr line_addr) const
{
    return forEachCandidateMember(
        store_, groupOf(core), line_addr, [&](SliceId member) {
            return store_.slice(member).contains(line_addr);
        });
}

std::optional<SliceId>
CacheLevelModel::findInOtherGroups(CoreId core, Addr line_addr) const
{
    // The lowest slice outside the group holding the line.
    const std::uint32_t own_group = groupOf_[core];
    std::optional<SliceId> found;
    store_.forEachCandidate(line_addr, 0, params_.numSlices, [&](SliceId s) {
        if (groupOf_[s] == own_group || !store_.slice(s).contains(line_addr))
            return false;
        found = s;
        return true;
    });
    return found;
}

bool
CacheLevelModel::invalidateInSlices(std::span<const SliceId> slices,
                                    Addr line_addr)
{
    bool dirty = false;
    forEachCandidateIn(slices, line_addr, [&](SliceId member) {
        const Eviction ev = invalidateLine(member, line_addr);
        if (ev.valid) {
            dirty = dirty || ev.dirty;
            noteEviction(member, line_addr, ev.reused);
            ++stats_.inclusionInvalidations;
        }
        return false;
    });
    return dirty;
}

bool
CacheLevelModel::invalidateOutsideGroup(CoreId core, Addr line_addr)
{
    const std::uint32_t own_group = groupOf_[core];
    bool dirty = false;
    store_.forEachCandidate(line_addr, 0, params_.numSlices, [&](SliceId s) {
        if (groupOf_[s] == own_group)
            return false;
        const Eviction ev = invalidateLine(s, line_addr);
        if (ev.valid) {
            dirty = dirty || ev.dirty;
            noteEviction(s, line_addr, ev.reused);
            ++stats_.coherenceInvalidations;
        }
        return false;
    });
    return dirty;
}

void
CacheLevelModel::setHooks(LevelHooks *hooks)
{
    hooks_ = hooks;
    if (hooks_ != nullptr && hooks_->wantsRecencyOrder())
        ensureRecencyIndex();
}

void
CacheLevelModel::ensureRecencyIndex()
{
    if (recency_)
        return;
    const std::uint32_t assoc = params_.sliceGeom.assoc;
    const std::size_t ways = std::size_t{params_.numSlices} * assoc;
    // Keys and per-set counts are 16-bit.
    MC_ASSERT(ways <= 0xffff);
    RecencyIndex &index = recency_.emplace();
    index.keys.assign(ways * numSets_, 0);
    index.count.assign(params_.numSlices * numSets_, 0);
    index.base.assign(params_.numSlices, 0);
    index.keyOffset.resize(ways);
    for (std::size_t key = 0; key < ways; ++key)
        index.keyOffset[key] = static_cast<std::uint16_t>(key / assoc);
    rebuildRecencyIndex();
}

void
CacheLevelModel::rebuildRecencyIndex()
{
    RecencyIndex &index = *recency_;
    const std::uint32_t assoc = params_.sliceGeom.assoc;
    std::size_t base = 0;
    for (std::uint32_t g = 0; g < partition_.size(); ++g) {
        const auto &group = partition_[g];
        index.base[g] = base;
        const std::size_t ways = group.size() * assoc;
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            std::uint16_t *keys = &index.keys[base + set * ways];
            std::uint16_t n = 0;
            for (SliceId member : group) {
                std::uint64_t m = store_.slice(member).validMask(set);
                while (m != 0) {
                    const auto way =
                        static_cast<std::uint32_t>(std::countr_zero(m));
                    m &= m - 1;
                    keys[n++] = recencyKey(member, way);
                }
            }
            std::sort(keys, keys + n,
                      [&](std::uint16_t a, std::uint16_t b) {
                          const std::uint64_t sa = keyStamp(g, set, a);
                          const std::uint64_t sb = keyStamp(g, set, b);
                          return sa < sb || (sa == sb && a < b);
                      });
            index.count[g * numSets_ + set] = n;
        }
        base += ways * numSets_;
    }
}

std::size_t
CacheLevelModel::recencyLowerBound(std::uint32_t group,
                                   std::uint64_t set,
                                   const std::uint16_t *keys,
                                   std::size_t lo, std::size_t hi,
                                   std::uint64_t stamp,
                                   std::uint16_t key) const
{
    // Branch-free halving: the order of stamps is unpredictable, so
    // each step selects the next base with a conditional move
    // instead of a branch the host would mispredict half the time.
    const auto below = [&](std::uint16_t k) {
        const std::uint64_t at = keyStamp(group, set, k);
        return (at < stamp) | ((at == stamp) & (k < key));
    };
    if (lo == hi)
        return lo;
    const std::uint16_t *base = keys + lo;
    std::size_t n = hi - lo;
    while (n > 1) {
        const std::size_t half = n / 2;
        base = below(base[half]) ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - keys) + below(*base);
}

void
CacheLevelModel::recencyAdd(SliceId slice, std::uint64_t set,
                            std::uint32_t way, std::uint64_t stamp)
{
    const std::uint32_t g = groupOf_[slice];
    std::uint16_t *keys = &recency_->keys[recencySlot(g, set)];
    std::uint16_t &n = recency_->count[g * numSets_ + set];
    const std::uint16_t key = recencyKey(slice, way);
    const std::size_t at = recencyLowerBound(g, set, keys, 0, n, stamp, key);
    std::copy_backward(keys + at, keys + n, keys + n + 1);
    keys[at] = key;
    ++n;
}

void
CacheLevelModel::recencyDrop(SliceId slice, std::uint64_t set,
                             std::uint32_t way)
{
    const std::uint32_t g = groupOf_[slice];
    std::uint16_t *keys = &recency_->keys[recencySlot(g, set)];
    std::uint16_t &n = recency_->count[g * numSets_ + set];
    const std::uint16_t key = recencyKey(slice, way);
    const std::size_t at = recencyLowerBound(
        g, set, keys, 0, n, store_.slice(slice).stampAt(set, way), key);
    MC_ASSERT(at < n && keys[at] == key);
    std::copy(keys + at + 1, keys + n, keys + at);
    --n;
}

void
CacheLevelModel::recencyRestamp(SliceId slice, std::uint64_t set,
                                std::uint32_t way, std::uint64_t stamp)
{
    const std::uint32_t g = groupOf_[slice];
    std::uint16_t *keys = &recency_->keys[recencySlot(g, set)];
    const std::size_t n = recency_->count[g * numSets_ + set];
    const std::uint16_t key = recencyKey(slice, way);
    const std::uint64_t old = store_.slice(slice).stampAt(set, way);
    const std::size_t at =
        recencyLowerBound(g, set, keys, 0, n, old, key);
    MC_ASSERT(at < n && keys[at] == key);
    if (stamp > old) {
        // Moves toward MRU. A fresh stamp (every touch and default
        // insert) ranks after the last key: no search.
        std::size_t to = n;
        if (at + 1 < n) {
            const std::uint64_t last = keyStamp(g, set, keys[n - 1]);
            if (last > stamp || (last == stamp && keys[n - 1] > key)) {
                to = recencyLowerBound(g, set, keys, at + 1, n - 1,
                                       stamp, key);
            }
        }
        std::copy(keys + at + 1, keys + to, keys + at);
        keys[to - 1] = key;
    } else if (stamp < old) {
        const std::size_t to =
            recencyLowerBound(g, set, keys, 0, at, stamp, key);
        std::copy_backward(keys + to, keys + at, keys + at + 1);
        keys[to] = key;
    }
}

CacheSlice
CacheLevelModel::slice(SliceId id)
{
    MC_ASSERT(id < params_.numSlices);
    return store_.slice(id);
}

ConstCacheSlice
CacheLevelModel::slice(SliceId id) const
{
    MC_ASSERT(id < params_.numSlices);
    return store_.slice(id);
}

void
CacheLevelModel::flipAcfvBit(CoreId core, SliceId slice,
                             std::uint32_t bit)
{
    acfvs_.flip(core, slice, bit);
}

void
CacheLevelModel::setBusFaultHook(BusFaultHook *hook)
{
    bus_.setFaultHook(hook);
}

void
CacheLevelModel::noteEviction(SliceId slice, Addr line_addr,
                              bool reused)
{
    // Only the eviction of a line that was *never reused* clears
    // its footprint unit: that is precisely the stale/streaming
    // data Section 2.1 wants excluded from the ACF, while reused
    // (genuinely active) granules keep their bits until the epoch
    // reset even if capacity churn displaces individual lines.
    if (reused)
        return;
    acfvs_.clearAllCores(slice, line_addr >> acfvGranShift_);
    if (params_.trackOracle) {
        const std::size_t base = std::size_t{slice} * params_.numSlices;
        for (std::uint32_t c = 0; c < params_.numSlices; ++c)
            oracles_[base + c].clear(line_addr);
    }
}

std::uint64_t
CacheLevelModel::oracleAcfSize(CoreId core, SliceId slice) const
{
    MC_ASSERT(params_.trackOracle);
    return oracles_[std::size_t{slice} * params_.numSlices + core]
        .size();
}

double
CacheLevelModel::fillPressure(const std::vector<SliceId> &slices) const
{
    MC_ASSERT(!slices.empty());
    std::uint64_t fills = 0;
    for (SliceId s : slices)
        fills += sliceFills_[s];
    const double capacity = static_cast<double>(
        params_.sliceGeom.numLines() * slices.size());
    return static_cast<double>(fills) / capacity;
}

void
CacheLevelModel::resetFootprints()
{
    acfvs_.resetAll();
    for (auto &oracle : oracles_)
        oracle.resetAll();
    sliceFills_.assign(params_.numSlices, 0);
}

void
CacheLevelModel::registerStats(StatsRegistry &registry,
                               const std::string &prefix,
                               const std::string &busPrefix) const
{
    const auto bind = [&](const char *name,
                          const std::uint64_t &field) {
        registry.bindCounter(prefix + "." + name,
                             [&field]() { return field; });
    };
    bind("localHits", stats_.localHits);
    bind("remoteHits", stats_.remoteHits);
    bind("misses", stats_.misses);
    bind("fills", stats_.fills);
    bind("evictions", stats_.evictions);
    bind("lazyInvalidations", stats_.lazyInvalidations);
    bind("coherenceInvalidations", stats_.coherenceInvalidations);
    bind("inclusionInvalidations", stats_.inclusionInvalidations);
    bind("sliceProbes", stats_.sliceProbes);
    bind("busEvents", stats_.busEvents);
    bind("busSpanTiles", stats_.busSpanTiles);

    for (std::uint32_t s = 0; s < params_.numSlices; ++s) {
        const std::string slice =
            prefix + ".slice" + std::to_string(s) + ".";
        registry.bindCounter(slice + "fills",
                             [this, s]() { return sliceFills_[s]; },
                             "fills since the last footprint reset");
        registry.bindCounter(
            slice + "validLines",
            [this, s]() {
                return store_.slice(static_cast<SliceId>(s))
                    .validLineCount();
            },
            "occupied lines in the physical slice");
        registry.bindScalar(
            slice + "acfPopcount",
            [this, s]() {
                return static_cast<double>(acfvs_.sliceAcfPopcount(
                    static_cast<SliceId>(s)));
            },
            "set bits in the OR of all cores' ACFVs for this slice");
    }

    registry.bindCounter(busPrefix + ".transactions",
                         [this]() { return bus_.numTransactions(); });
    registry.bindCounter(busPrefix + ".queueCycles",
                         [this]() { return bus_.queueingCycles(); },
                         "CPU cycles spent queueing for a segment");
    for (std::uint32_t s = 0; s < params_.numSlices; ++s) {
        const std::string seg =
            busPrefix + ".seg" + std::to_string(s) + ".";
        registry.bindCounter(seg + "transactions", [this, s]() {
            return bus_.transactionsForSegment(s);
        });
        registry.bindCounter(seg + "queueCycles", [this, s]() {
            return bus_.queueingCyclesForSegment(s);
        });
    }
}

template <class Ar, class Self>
void
CacheLevelModel::checkpointFields(Ar &ar, Self &self)
{
    ar.fixedVec("group rotor size", self.groupRotor_);
    for (std::uint32_t s = 0; s < self.params_.numSlices; ++s)
        ar.nested(self.store_, static_cast<SliceId>(s));
    ar.nested(self.acfvs_);
    ar.expectU64("oracle bank size", self.oracles_.size());
    for (auto &oracle : self.oracles_)
        ar.nested(oracle);
    ar.fixedVec("slice fill counter size", self.sliceFills_);
    ar.u64(self.stamp_);
    auto &stats = self.stats_;
    ar.u64(stats.localHits);
    ar.u64(stats.remoteHits);
    ar.u64(stats.misses);
    ar.u64(stats.fills);
    ar.u64(stats.evictions);
    ar.u64(stats.lazyInvalidations);
    ar.u64(stats.coherenceInvalidations);
    ar.u64(stats.inclusionInvalidations);
    ar.u64(stats.sliceProbes);
    ar.u64(stats.busEvents);
    ar.u64(stats.busSpanTiles);
    ar.nested(self.bus_);
}

void
CacheLevelModel::saveState(CkptWriter &w) const
{
    checkpointPartition(w, partition_, params_.numSlices);
    checkpointFields(w, *this);
}

void
CacheLevelModel::loadState(CkptReader &r)
{
    // configure() rebuilds every derived table, resetting
    // groupRotor_ and the bus occupancy, which the walk then
    // restores.
    Partition partition;
    checkpointPartition(r, partition, params_.numSlices);
    configure(partition);
    checkpointFields(r, *this);
    if (recency_)
        rebuildRecencyIndex();
}

} // namespace morphcache
