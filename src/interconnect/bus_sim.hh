/**
 * @file
 * Cycle-level segmented-bus simulator.
 *
 * Where SegmentedBus (segmented_bus.hh) is the fast queueing model
 * the CMP simulator uses, this class steps the interconnect bus
 * cycle by bus cycle: pending requests are latched per slice, the
 * hierarchical round-robin arbiter tree (arbiter.hh) grants at most
 * one requester per segment, and a granted transaction occupies its
 * segment for the configured number of bus cycles before the data
 * phase completes. It exists to validate the queueing model (see
 * the busmodel_validation bench and the interconnect tests) and to
 * give the Section 3 hardware description an executable form.
 */

#ifndef MORPHCACHE_INTERCONNECT_BUS_SIM_HH
#define MORPHCACHE_INTERCONNECT_BUS_SIM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"
#include "interconnect/arbiter.hh"
#include "interconnect/delay_model.hh"

namespace morphcache {

/** A completed bus transaction. */
struct BusCompletion
{
    /** Slice whose transaction finished. */
    SliceId slice = invalidSlice;
    /** CPU cycle the request was submitted. */
    Cycle requestedAt = 0;
    /** CPU cycle the data phase finished. */
    Cycle completedAt = 0;

    /** End-to-end latency in CPU cycles. Completion at or before
     *  submission (possible transiently while a checkpoint is
     *  being restored into the in-flight queue) reads as zero
     *  latency, not a ~2^64-cycle wrap. */
    Cycle
    latency() const
    {
        return satSub(completedAt, requestedAt);
    }
};

/**
 * Cycle-level model of one segmented bus with its arbiter tree.
 */
class SegmentedBusSim
{
  public:
    /**
     * @param num_slices Slices on the bus (power of two, >= 2). A
     *        transaction holds its segment for busCyclesPerTxn bus
     *        cycles of cpuCyclesPerBusCycle CPU cycles each.
     */
    explicit SegmentedBusSim(std::uint32_t num_slices);

    /**
     * Configure segmentation from aligned power-of-two groups
     * (same contract as ArbiterTree::configure).
     */
    void configure(const std::vector<std::uint32_t> &group_of);

    /**
     * Submit a transaction request.
     * @param slice Requesting slice.
     * @param cpu_now CPU cycle of submission.
     */
    void request(SliceId slice, Cycle cpu_now);

    /**
     * Advance the bus to the given CPU cycle, arbitrating and
     * completing transactions.
     * @return Transactions whose data phase completed.
     */
    std::vector<BusCompletion> advanceTo(Cycle cpu_cycle);

    /** Transactions completed so far. */
    std::uint64_t numCompleted() const { return completed_; }

    /** Sum of end-to-end latencies of completed transactions. */
    std::uint64_t totalLatency() const { return totalLatency_; }

    /** Average transaction latency in CPU cycles. */
    double
    averageLatency() const
    {
        return completed_ ? static_cast<double>(totalLatency_) /
                                static_cast<double>(completed_)
                          : 0.0;
    }

    /** Per-slice completed-transaction counts (fairness checks). */
    const std::vector<std::uint64_t> &perSliceCompleted() const
    {
        return perSlice_;
    }

  private:
    /** Run one bus cycle at the given CPU time. */
    void busCycle(Cycle cpu_now, std::vector<BusCompletion> &out);

    std::uint32_t numSlices_;
    ArbiterTree tree_;
    std::vector<std::uint32_t> groupOf_;
    /** FIFO of pending requests per slice (submission times). */
    std::vector<std::deque<Cycle>> pending_;
    /** Remaining busy bus-cycles per segment id. */
    std::vector<std::uint32_t> segmentBusy_;
    /** In-flight transaction per segment (one at a time). */
    struct InFlight
    {
        bool active = false;
        SliceId slice = invalidSlice;
        Cycle requestedAt = 0;
    };
    std::vector<InFlight> inFlight_;
    /** Next bus-cycle boundary in CPU cycles. */
    Cycle nextBusEdge_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t totalLatency_ = 0;
    std::vector<std::uint64_t> perSlice_;
};

} // namespace morphcache

#endif // MORPHCACHE_INTERCONNECT_BUS_SIM_HH
