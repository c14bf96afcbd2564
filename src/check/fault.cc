#include "check/fault.hh"

#include <algorithm>

#include "hierarchy/cache_level.hh"

namespace morphcache {

FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config), epochRng_(config.seed),
      busRng_(config.seed ^ 0x9e3779b97f4a7c15ULL)
{
}

void
FaultInjector::injectAcfvFaults(CacheLevelModel &level)
{
    const std::uint32_t slices = level.numSlices();
    const std::uint32_t bits = level.params().acfvBits;
    for (std::uint32_t i = 0; i < config_.acfvFlipsPerEpoch; ++i) {
        // One ACFV per (core, slice); cores == slices per level in
        // this design.
        const auto core =
            static_cast<CoreId>(epochRng_.below(slices));
        const auto slice =
            static_cast<SliceId>(epochRng_.below(slices));
        const auto bit =
            static_cast<std::uint32_t>(epochRng_.below(bits));
        level.flipAcfvBit(core, slice, bit);
        ++stats_.acfvBitFlips;
    }
}

bool
FaultInjector::corruptClassification()
{
    if (config_.classificationFlipChance <= 0.0)
        return false;
    if (!epochRng_.chance(config_.classificationFlipChance))
        return false;
    ++stats_.classificationFlips;
    return true;
}

bool
FaultInjector::corruptTopology(Topology &topology)
{
    if (config_.illegalTopologyChance <= 0.0)
        return false;
    if (!epochRng_.chance(config_.illegalTopologyChance))
        return false;

    switch (epochRng_.below(3)) {
      case 0: {
        // Duplicate a slice: slice 0 joins the last L2 group too.
        auto &group = topology.l2.back();
        group.push_back(topology.l2.front().front());
        std::sort(group.begin(), group.end());
        break;
      }
      case 1: {
        // Drop a slice from the last L2 group.
        auto &group = topology.l2.back();
        group.pop_back();
        if (group.empty())
            topology.l2.pop_back();
        break;
      }
      default: {
        // Inclusion straddle: one level fully shared, the other
        // fully private (illegal whenever numCores >= 2).
        topology.l2 = allShared(topology.numCores);
        if (topology.l3.size() == 1)
            topology.l3 = allPrivate(topology.numCores);
        break;
      }
    }
    ++stats_.illegalTopologies;
    return true;
}

Cycle
FaultInjector::grantDelay(SliceId slice, Cycle now)
{
    (void)slice;
    (void)now;
    Cycle extra = 0;
    if (config_.busDropChance > 0.0 &&
        busRng_.chance(config_.busDropChance)) {
        // A dropped grant re-arbitrates: one whole transaction.
        ++stats_.busDrops;
        extra += busTxnCpuCycles;
    }
    if (config_.busDelayChance > 0.0 &&
        busRng_.chance(config_.busDelayChance)) {
        // A delayed grant arrives one bus cycle late.
        ++stats_.busDelays;
        extra += cpuCyclesPerBusCycle;
    }
    stats_.busFaultCycles += extra;
    return extra;
}

} // namespace morphcache
