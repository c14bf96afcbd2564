/**
 * @file
 * Segmented-bus timing model (paper Sections 3.1/3.2).
 *
 * Two views of the same interconnect are provided:
 *
 *  - ArbiterTree (arbiter.hh) is the cycle-level functional model of
 *    the arbitration fabric, used by the unit tests and the Table 2
 *    experiments.
 *
 *  - SegmentedBus below is the queueing/timing model the CMP
 *    simulator uses: each sharing group owns an independent segment;
 *    a bus transaction (request + grant + data) occupies its segment
 *    for a fixed number of cycles, and contention shows up as a
 *    busy-wait before the transaction starts.
 *
 * With the paper's parameters (1 GHz bus, 5 GHz cores, 3-cycle
 * transaction) a remote slice access pays 15 CPU cycles, matching
 * the "additional 15 cycles overhead due to the MorphCache
 * interconnect" of Section 4; a request-only transaction (a miss
 * broadcast) pays 10. Both latencies follow from delay_model.hh;
 * what a level chooses is only how long a transaction *occupies*
 * its segment.
 */

#ifndef MORPHCACHE_INTERCONNECT_SEGMENTED_BUS_HH
#define MORPHCACHE_INTERCONNECT_SEGMENTED_BUS_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"
#include "interconnect/delay_model.hh"

namespace morphcache {

/**
 * Bus-grant fault hook (fault injection, src/check).
 *
 * Called once per granted transaction; the returned CPU cycles are
 * added to the transaction's latency and segment occupancy,
 * modelling dropped grants (full re-arbitration) and delayed
 * grants. A clean grant returns 0.
 */
class BusFaultHook
{
  public:
    virtual ~BusFaultHook() = default;

    /** Extra CPU cycles injected into this grant (0 = clean). */
    virtual Cycle grantDelay(SliceId slice, Cycle now) = 0;
};

/**
 * Per-segment queueing model.
 *
 * Segments are identified by dense group ids assigned by
 * configure(); slices mapped to the same group contend for one
 * segment, distinct groups proceed in parallel (the whole point of
 * the segmented design).
 */
class SegmentedBus
{
  public:
    /**
     * @param num_slices Number of slices on this bus.
     * @param occupancy CPU cycles one transaction holds its segment:
     *        one bus cycle (the data phase) when arbitration of the
     *        next transaction overlaps earlier phases, a whole
     *        transaction when transactions serialize.
     */
    SegmentedBus(std::uint32_t num_slices, Cycle occupancy);

    /**
     * Reconfigure segmentation.
     * @param group_of group_of[i] = segment id of slice i (dense or
     *        not; ids are used as opaque keys).
     */
    void configure(const std::vector<std::uint32_t> &group_of);

    /**
     * Perform one bus transaction originating at `slice`.
     *
     * @param slice Requesting slice.
     * @param now Current CPU cycle.
     * @return Total CPU-cycle latency (queueing + transaction).
     */
    Cycle transact(SliceId slice, Cycle now);

    /**
     * Perform a request-only transaction (miss broadcast without a
     * data phase).
     */
    Cycle transactRequest(SliceId slice, Cycle now);

    /** Total transactions carried so far. */
    std::uint64_t numTransactions() const { return numTxns_; }

    /** Total CPU cycles spent queueing (contention). */
    std::uint64_t queueingCycles() const { return queueCycles_; }

    /**
     * Queueing cycles accumulated on segment `seg` (dense index in
     * [0, num_slices); segment k is the one whose lowest member is
     * slice k, so counts survive reconfiguration as "contention at
     * the segment anchored at slice k").
     */
    std::uint64_t queueingCyclesForSegment(std::uint32_t seg) const;

    /** Transactions carried by segment `seg`. */
    std::uint64_t transactionsForSegment(std::uint32_t seg) const;

    /** Segment id currently assigned to a slice. */
    std::uint32_t groupOf(SliceId slice) const;

    /** Attach a grant-fault hook (not owned; nullptr = clean bus). */
    void setFaultHook(BusFaultHook *hook) { faultHook_ = hook; }

    /**
     * Serialize occupancy + counters. Segmentation (groupOf_,
     * segSize_) is rebuilt by configure() during restore, so
     * loadState() must run *after* configure() — configure() zeroes
     * busyUntil_, which loadState() then overwrites with the saved
     * occupancy.
     */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.fixedVec("bus segment count", self.busyUntil_);
        ar.u64(self.numTxns_);
        ar.u64(self.queueCycles_);
        ar.fixedVec("bus segment queue counter count",
                    self.segQueueCycles_);
        ar.fixedVec("bus segment transaction counter count",
                    self.segTxns_);
    }

    /** Shared queue/occupancy accounting; returns the wait. */
    Cycle queueAndOccupy(SliceId slice, Cycle now);

    Cycle occupancy_; // ckpt: derived(SegmentedBus)
    std::vector<std::uint32_t> groupOf_; // ckpt: derived(configure)
    /** Earliest CPU cycle each segment becomes free. */
    std::vector<Cycle> busyUntil_;
    /** Slices per segment (queueing cap). */
    std::vector<std::uint32_t> segSize_; // ckpt: derived(configure)
    std::uint64_t numTxns_ = 0;
    std::uint64_t queueCycles_ = 0;
    /** Per-segment breakdowns, indexed by dense segment id. */
    std::vector<std::uint64_t> segQueueCycles_;
    std::vector<std::uint64_t> segTxns_;
    /** Optional injected grant faults (src/check); not owned. */
    BusFaultHook *faultHook_ = nullptr; // ckpt: transient(wiring; reattached by owner)
};

} // namespace morphcache

#endif // MORPHCACHE_INTERCONNECT_SEGMENTED_BUS_HH
