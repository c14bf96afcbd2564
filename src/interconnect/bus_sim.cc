#include "interconnect/bus_sim.hh"

#include "common/logging.hh"

namespace morphcache {

SegmentedBusSim::SegmentedBusSim(std::uint32_t num_slices)
    : numSlices_(num_slices), tree_(num_slices),
      groupOf_(num_slices), pending_(num_slices),
      segmentBusy_(num_slices, 0), inFlight_(num_slices),
      perSlice_(num_slices, 0)
{
    for (std::uint32_t i = 0; i < num_slices; ++i)
        groupOf_[i] = i;
    tree_.configure(groupOf_);
}

void
SegmentedBusSim::configure(const std::vector<std::uint32_t> &group_of)
{
    MC_ASSERT(group_of.size() == numSlices_);
    groupOf_ = group_of;
    tree_.configure(group_of);
    // Drain segmentation state; in-flight transactions complete on
    // the old shape conceptually, but reconfiguration in MorphCache
    // happens at epoch boundaries with the bus idle.
    for (auto &busy : segmentBusy_)
        busy = 0;
    for (auto &txn : inFlight_)
        txn.active = false;
}

void
SegmentedBusSim::request(SliceId slice, Cycle cpu_now)
{
    MC_ASSERT(slice < numSlices_);
    pending_[slice].push_back(cpu_now);
}

void
SegmentedBusSim::busCycle(Cycle cpu_now,
                          std::vector<BusCompletion> &out)
{
    // Retire segments whose transaction finishes this bus cycle.
    for (std::uint32_t s = 0; s < numSlices_; ++s) {
        if (segmentBusy_[s] == 0)
            continue;
        if (--segmentBusy_[s] == 0 && inFlight_[s].active) {
            BusCompletion done;
            done.slice = inFlight_[s].slice;
            done.requestedAt = inFlight_[s].requestedAt;
            done.completedAt = cpu_now;
            out.push_back(done);
            ++completed_;
            ++perSlice_[done.slice];
            totalLatency_ += done.latency();
            inFlight_[s].active = false;
        }
    }

    // Latch requests that have arrived and whose segment is free.
    std::vector<bool> requests(numSlices_, false);
    for (std::uint32_t s = 0; s < numSlices_; ++s) {
        if (pending_[s].empty() || pending_[s].front() > cpu_now)
            continue;
        if (segmentBusy_[groupOf_[s]] > 0)
            continue;
        requests[s] = true;
    }

    // One grant per segment via the arbiter tree.
    const auto grants = tree_.arbitrate(requests);
    for (std::uint32_t s = 0; s < numSlices_; ++s) {
        if (!grants[s])
            continue;
        const std::uint32_t seg = groupOf_[s];
        MC_ASSERT(segmentBusy_[seg] == 0);
        MC_ASSERT(!inFlight_[seg].active);
        segmentBusy_[seg] = busCyclesPerTxn;
        inFlight_[seg].active = true;
        inFlight_[seg].slice = static_cast<SliceId>(s);
        inFlight_[seg].requestedAt = pending_[s].front();
        pending_[s].pop_front();
    }
}

std::vector<BusCompletion>
SegmentedBusSim::advanceTo(Cycle cpu_cycle)
{
    std::vector<BusCompletion> out;
    while (nextBusEdge_ <= cpu_cycle) {
        busCycle(nextBusEdge_, out);
        nextBusEdge_ += cpuCyclesPerBusCycle;
    }
    return out;
}

} // namespace morphcache
