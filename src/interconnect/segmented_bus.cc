#include "interconnect/segmented_bus.hh"

#include <algorithm>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace morphcache {

SegmentedBus::SegmentedBus(std::uint32_t num_slices, Cycle occupancy)
    : occupancy_(occupancy), groupOf_(num_slices),
      busyUntil_(num_slices, 0)
{
    MC_ASSERT(num_slices > 0);
    for (std::uint32_t i = 0; i < num_slices; ++i)
        groupOf_[i] = i; // all-private default
    segSize_.assign(num_slices, 1);
    segQueueCycles_.assign(num_slices, 0);
    segTxns_.assign(num_slices, 0);
}

void
SegmentedBus::configure(const std::vector<std::uint32_t> &group_of)
{
    MC_ASSERT(group_of.size() == groupOf_.size());
    // Normalize ids into [0, num_slices): the first slice of each
    // group becomes its dense segment index.
    std::unordered_map<std::uint32_t, std::uint32_t> firstOf;
    firstOf.reserve(group_of.size());
    for (std::uint32_t i = 0; i < group_of.size(); ++i) {
        groupOf_[i] = firstOf.emplace(group_of[i], i).first->second;
    }
    // Segment sizes bound the worst-case queueing round.
    segSize_.assign(groupOf_.size(), 0);
    for (std::uint32_t i = 0; i < groupOf_.size(); ++i)
        ++segSize_[groupOf_[i]];
    // Reconfiguration drains in-flight transactions; segments start
    // idle relative to whatever cycle comes next. Without this
    // reset, occupancy accumulated under the *old* representative
    // mapping would be re-read under the new one and charge phantom
    // queueing (or hide real contention) on the first post-reconfig
    // accesses.
    std::fill(busyUntil_.begin(), busyUntil_.end(), 0);
}

Cycle
SegmentedBus::queueAndOccupy(SliceId slice, Cycle now)
{
    MC_ASSERT(slice < groupOf_.size());
    const std::uint32_t seg = groupOf_[slice];
    // Requesters live on their own core clocks, which drift apart;
    // the physically meaningful bound on queueing is one service
    // round of the whole segment (every other slice queued ahead),
    // so the wait is capped there rather than letting cross-clock
    // skew masquerade as contention.
    const Cycle cap = occupancy_ * segSize_[seg];
    Cycle wait = satSub(busyUntil_[seg], now);
    if (wait > cap)
        wait = cap;
    // Injected grant faults (dropped/delayed grants) stretch both
    // the requester's wait and the segment's occupancy: a lost
    // grant re-arbitrates on the same wires everyone shares.
    Cycle fault = 0;
    if (faultHook_)
        fault = faultHook_->grantDelay(slice, now + wait);
    busyUntil_[seg] = now + wait + fault + occupancy_;
    ++numTxns_;
    queueCycles_ += wait;
    ++segTxns_[seg];
    segQueueCycles_[seg] += wait;
    return wait + fault;
}

std::uint64_t
SegmentedBus::queueingCyclesForSegment(std::uint32_t seg) const
{
    MC_ASSERT(seg < segQueueCycles_.size());
    return segQueueCycles_[seg];
}

std::uint64_t
SegmentedBus::transactionsForSegment(std::uint32_t seg) const
{
    MC_ASSERT(seg < segTxns_.size());
    return segTxns_[seg];
}

Cycle
SegmentedBus::transact(SliceId slice, Cycle now)
{
    return queueAndOccupy(slice, now) + busTxnCpuCycles;
}

Cycle
SegmentedBus::transactRequest(SliceId slice, Cycle now)
{
    return queueAndOccupy(slice, now) + busRequestCpuCycles;
}

std::uint32_t
SegmentedBus::groupOf(SliceId slice) const
{
    MC_ASSERT(slice < groupOf_.size());
    return groupOf_[slice];
}

} // namespace morphcache
