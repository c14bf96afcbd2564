#include "baselines/ucp.hh"

#include <algorithm>

#include "common/logging.hh"

namespace morphcache {

UcpPolicy::UcpPolicy(std::uint32_t num_cores, std::uint64_t num_sets,
                     std::uint32_t num_slices, std::uint32_t assoc)
    : numCores_(num_cores), numSets_(num_sets),
      numSlices_(num_slices), assoc_(assoc),
      quota_(num_cores,
             std::max(1u, num_slices * assoc / num_cores)),
      owner_(std::size_t{num_slices} * num_sets * assoc, invalidCore),
      ownedCount_(num_sets * num_cores, 0)
{
    monitors_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        monitors_.emplace_back(num_sets, num_slices * assoc);
    prefixScratch_.reserve(std::size_t{num_cores} *
                           (std::size_t{num_slices} * assoc + 1));
}

void
UcpPolicy::rebuildOwnedCounts()
{
    std::fill(ownedCount_.begin(), ownedCount_.end(), 0u);
    for (std::uint32_t s = 0; s < numSlices_; ++s) {
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            for (std::uint32_t w = 0; w < assoc_; ++w) {
                const CoreId who =
                    owner_[ownerIndex(static_cast<SliceId>(s), set,
                                      w)];
                if (who < numCores_)
                    ++ownedCount_[set * numCores_ + who];
            }
        }
    }
}

std::size_t
UcpPolicy::ownerIndex(SliceId slice, std::uint64_t set,
                      std::uint32_t way) const
{
    return (std::size_t{slice} * numSets_ + set) * assoc_ + way;
}

bool
UcpPolicy::hit(CacheLevelModel &level, CoreId core, Addr line_addr,
               SliceId slice, std::uint64_t set, std::uint32_t way)
{
    (void)level;
    (void)slice;
    (void)set;
    (void)way;
    monitors_[core].access(line_addr);
    return true; // standard move-to-MRU
}

void
UcpPolicy::miss(CacheLevelModel &level, CoreId core, Addr line_addr)
{
    (void)level;
    monitors_[core].access(line_addr);
}

bool
UcpPolicy::insert(CacheLevelModel &level, CoreId core, Addr line_addr,
                  bool dirty, InsertOutcome &out)
{
    const std::uint64_t set = level.slice(0).setIndex(line_addr);
    const std::uint32_t group = level.groupOf(core);
    MC_ASSERT(level.groupSlices(core).size() == numSlices_);
    const std::span<const std::uint16_t> order =
        level.recencyOrder(group, set);

    SliceId target = invalidSlice;
    std::uint32_t target_way = 0;
    if (order.size() < std::size_t{numSlices_} * assoc_) {
        // 1) First invalid way, slice-major: one valid-word scan per
        //    slice, no stamps touched.
        for (std::uint32_t s = 0; s < numSlices_; ++s) {
            const std::uint32_t inv =
                level.slice(static_cast<SliceId>(s)).firstInvalidWay(set);
            if (inv != assoc_) {
                target = static_cast<SliceId>(s);
                target_way = inv;
                break;
            }
        }
    } else {
        // 2) Set fully valid: every way's owner entry is current, so
        //    the incremental tallies pick the branch, and the victim
        //    is the first line in recency order (LRU first, ties in
        //    slice-major, way-minor order) that the branch may take.
        //    At quota: the core's own LRU line. Under quota: the LRU
        //    line of an over-quota core, or the global LRU line when
        //    no core is over quota.
        const std::uint32_t *cnt = &ownedCount_[set * numCores_];
        const bool at_quota = cnt[core] >= quota_[core] && cnt[core] > 0;
        bool any_over = false;
        for (std::uint32_t c = 0; !at_quota && c < numCores_; ++c) {
            if (cnt[c] > quota_[c]) {
                any_over = true;
                break;
            }
        }
        for (const std::uint16_t key : order) {
            const CacheLevelModel::GroupWay gw =
                level.recencyWay(group, key);
            if (at_quota || any_over) {
                const CoreId who = owner_[ownerIndex(gw.slice, set, gw.way)];
                const bool eligible =
                    at_quota ? who == core
                             : who < numCores_ && cnt[who] > quota_[who];
                if (!eligible)
                    continue;
            }
            target = gw.slice;
            target_way = gw.way;
            break;
        }
    }
    MC_ASSERT(target != invalidSlice);

    out = level.fillAt(core, target, target_way, line_addr, dirty);
    const std::size_t idx = ownerIndex(target, set, target_way);
    const CoreId prev = owner_[idx];
    if (prev != core) {
        if (prev < numCores_)
            --ownedCount_[set * numCores_ + prev];
        ++ownedCount_[set * numCores_ + core];
        owner_[idx] = core;
    }
    return true;
}

void
UcpPolicy::epochBoundary()
{
    lookaheadAllocate(monitors_, numSlices_ * assoc_, quota_,
                      prefixScratch_);
    for (auto &monitor : monitors_)
        monitor.decay();
}

std::uint32_t
UcpPolicy::quota(CoreId core) const
{
    MC_ASSERT(core < quota_.size());
    return quota_[core];
}

std::unique_ptr<StaticTopologySystem>
makeUcpSystem(HierarchyParams params)
{
    // Like PIPP: a conventional shared-cache design, non-inclusive
    // as originally proposed.
    params.inclusive = false;
    const std::uint32_t cores = params.numCores;
    const auto policy = [cores](const LevelParams &level) {
        return std::make_unique<UcpPolicy>(
            cores, level.sliceGeom.numSets(), cores,
            level.sliceGeom.assoc);
    };
    std::unique_ptr<UcpPolicy> l2 = policy(params.l2);
    std::unique_ptr<UcpPolicy> l3 = policy(params.l3);
    return std::make_unique<StaticTopologySystem>(
        std::move(params), Topology::symmetric(cores, cores, 1, 1),
        RemoteCost::None, "UCP", std::move(l2), std::move(l3));
}

} // namespace morphcache
