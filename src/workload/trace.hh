/**
 * @file
 * Memory-trace capture and replay.
 *
 * The synthetic generators are the default workload source, but a
 * downstream user will eventually want to drive the hierarchy from
 * real traces (e.g. converted Pin/gem5 output). TraceRecorder
 * captures any Workload's streams into a compact binary file with
 * epoch markers; TraceWorkload replays such a file through the
 * standard Workload interface, so every simulator facility
 * (MorphCache, statics, PIPP, DSR, the ideal oracle) works on
 * traces unchanged.
 *
 * File format (little-endian):
 *   magic "MCTR", u32 version, u32 numCores,
 *   then records: u8 kind (0 = access, 1 = epoch marker),
 *     access: u16 core, u8 type, u64 addr
 *     epoch:  u32 epoch id
 */

#ifndef MORPHCACHE_WORKLOAD_TRACE_HH
#define MORPHCACHE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workload/generator.hh"

namespace morphcache {

/** In-memory trace: per-epoch, per-core reference sequences. */
struct Trace
{
    std::uint32_t numCores = 0;
    /** epochs[e][c] = references of core c during epoch e. */
    std::vector<std::vector<std::vector<MemAccess>>> epochs;

    /** Total references across all epochs and cores. */
    std::uint64_t totalReferences() const;
};

/**
 * Capture `refs_per_epoch` references per core for `num_epochs`
 * epochs from any workload.
 */
Trace recordTrace(Workload &workload, std::uint32_t num_epochs,
                  std::uint64_t refs_per_epoch);

/** Serialize a trace to a file; fatal() on I/O errors. */
void writeTrace(const Trace &trace, const std::string &path);

/**
 * Load a trace from a file. Malformed input — missing file, wrong
 * magic, version mismatch, truncation mid-record, out-of-range core
 * ids, out-of-order epoch markers, unknown record kinds — throws
 * TraceError naming the file and byte offset, never crashes or
 * reads uninitialized data.
 */
Trace readTrace(const std::string &path);

/**
 * Replays a Trace through the Workload interface. Each epoch's
 * per-core sequences are consumed in order; if the simulator asks
 * for more references than an epoch holds, the sequence wraps (and
 * a wrap counter records it). The constructor rejects traces that
 * cannot replay (no epochs, missing per-core sequences, an epoch
 * with no references for some core) with TraceError.
 */
class TraceWorkload : public Workload
{
  public:
    explicit TraceWorkload(Trace trace, bool shared_address_space =
                                            false);

    MemAccess next(CoreId core) override;
    void beginEpoch(EpochId epoch) override;
    bool
    sharedAddressSpace() const override
    {
        return sharedAddressSpace_;
    }
    std::uint32_t numCores() const override;
    std::unique_ptr<Workload> clone() const override;
    std::string name() const override { return "trace"; }

    /** Times any core's epoch sequence wrapped around. */
    std::uint64_t wrapCount() const { return wraps_; }

    /**
     * Serialize the replay cursor (epoch index, per-core positions,
     * wrap counter) — not the trace itself, which the restored run
     * reloads from its original file.
     */
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    Trace trace_;             // ckpt: derived(TraceWorkload)
    bool sharedAddressSpace_; // ckpt: derived(TraceWorkload)
    std::size_t epoch_ = 0;
    std::vector<std::size_t> cursor_;
    std::uint64_t wraps_ = 0;
};

} // namespace morphcache

#endif // MORPHCACHE_WORKLOAD_TRACE_HH
