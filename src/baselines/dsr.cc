#include "baselines/dsr.hh"

#include <algorithm>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"

namespace morphcache {

namespace {

/**
 * Leader sets recur every this many sets per slice (two leaders per
 * period: one always-spill, one never-spill).
 */
constexpr std::uint64_t leaderPeriod = 64;

} // namespace

DsrPolicy::DsrPolicy(std::uint32_t num_slices, std::uint64_t num_sets)
    : numSlices_(num_slices), numSets_(num_sets), psel_(num_slices, 0)
{
    MC_ASSERT(num_slices >= 2);
    MC_ASSERT(leaderPeriod >= 2 * num_slices);
    MC_ASSERT(num_sets >= leaderPeriod);
}

DsrPolicy::SetRole
DsrPolicy::roleOf(SliceId slice, std::uint64_t set) const
{
    // Within every leader period, slice s owns two leader sets:
    // one pinned always-spill, one pinned never-spill. Offsetting
    // by the slice id spreads leaders across distinct sets.
    const std::uint64_t phase = set % leaderPeriod;
    if (phase == 2ull * slice)
        return SetRole::SpillLeader;
    if (phase == 2ull * slice + 1)
        return SetRole::ReceiveLeader;
    return SetRole::Follower;
}

bool
DsrPolicy::isSpiller(SliceId slice, std::uint64_t set) const
{
    switch (roleOf(slice, set)) {
      case SetRole::SpillLeader:
        return true;
      case SetRole::ReceiveLeader:
        return false;
      case SetRole::Follower:
      default:
        // Negative PSEL: the spill-leader sets missed less, so
        // spilling is the better policy for this cache.
        return psel_[slice] < 0;
    }
}

int
DsrPolicy::psel(SliceId slice) const
{
    MC_ASSERT(slice < numSlices_);
    return psel_[slice];
}

void
DsrPolicy::miss(CacheLevelModel &level, CoreId core, Addr line_addr)
{
    (void)level;
    // Misses in leader sets steer the dueling counter: a miss under
    // the always-spill leader charges the spill policy, a miss
    // under the never-spill leader charges the keep policy.
    const std::uint64_t set = line_addr & (numSets_ - 1);
    switch (roleOf(core, set)) {
      case SetRole::SpillLeader:
        psel_[core] = std::min(psel_[core] + 1, pselMax);
        break;
      case SetRole::ReceiveLeader:
        psel_[core] = std::max(psel_[core] - 1, -pselMax);
        break;
      case SetRole::Follower:
        break;
    }
}

bool
DsrPolicy::insert(CacheLevelModel &level, CoreId core, Addr line_addr,
                  bool dirty, InsertOutcome &out)
{
    // DSR always installs into the owner's private slice.
    out = level.insertIntoSlice(core, static_cast<SliceId>(core),
                                line_addr, dirty);
    if (!out.evicted.valid)
        return true;

    const std::uint64_t set = line_addr & (numSets_ - 1);
    if (!isSpiller(static_cast<SliceId>(core), set))
        return true;

    // Spill the victim into the next receiver slice (round-robin).
    for (std::uint32_t probe = 1; probe < numSlices_; ++probe) {
        const auto candidate = static_cast<SliceId>(
            (core + rotor_ + probe) % numSlices_);
        if (candidate == core)
            continue;
        if (isSpiller(candidate, set))
            continue;
        const InsertOutcome spill = level.insertIntoSlice(
            core, candidate, out.evicted.lineAddr, out.evicted.dirty);
        rotor_ = (rotor_ + probe) % numSlices_;
        ++spills_;
        // The spilled line stays at this level; what leaves is the
        // receiver's victim.
        out.evicted = spill.evicted;
        out.evictedFrom = spill.evictedFrom;
        return true;
    }
    return true; // no receiver available: plain eviction
}

std::unique_ptr<StaticTopologySystem>
makeDsrSystem(HierarchyParams params)
{
    // Like PIPP, DSR's original evaluation is not inclusion-
    // enforced; spills would otherwise trigger back-invalidations.
    params.inclusive = false;
    const std::uint32_t cores = params.numCores;
    if (2ull * cores > leaderPeriod) {
        throw ConfigError("DSR supports at most " +
                          std::to_string(leaderPeriod / 2) +
                          " cores (two leader sets per slice in a " +
                          std::to_string(leaderPeriod) +
                          "-set period), not " + std::to_string(cores));
    }
    auto l2 = std::make_unique<DsrPolicy>(cores,
                                          params.l2.sliceGeom.numSets());
    auto l3 = std::make_unique<DsrPolicy>(cores,
                                          params.l3.sliceGeom.numSets());
    return std::make_unique<StaticTopologySystem>(
        std::move(params), Topology::symmetric(cores, cores, 1, 1),
        RemoteCost::Premium, "DSR", std::move(l2), std::move(l3));
}

} // namespace morphcache
