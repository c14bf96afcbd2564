/**
 * @file
 * Epoch-driven simulation: drives a Workload through a
 * MemorySystem with the analytical core model, collecting the
 * metrics every figure in the paper is built from.
 */

#ifndef MORPHCACHE_SIM_SIMULATION_HH
#define MORPHCACHE_SIM_SIMULATION_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "sim/core_model.hh"
#include "sim/memory_system.hh"
#include "workload/generator.hh"

namespace morphcache {

class StatsRegistry;
class Tracer;

/** Metrics of one recorded epoch. */
struct EpochMetrics
{
    /** Per-core IPC over the epoch. */
    std::vector<double> ipc;
    /** Sum of per-core IPCs (the paper's throughput). */
    double throughput = 0.0;
    /** Per-core misses to memory during the epoch. */
    std::vector<std::uint64_t> misses;
};

/** Metrics of a full run. */
struct RunResult
{
    std::vector<EpochMetrics> epochs;
    /** Per-core IPC over all recorded epochs. */
    std::vector<double> avgIpc;
    /** Average throughput across recorded epochs. */
    double avgThroughput = 0.0;
    /**
     * Multithreaded performance: total instructions over the
     * slowest core's cycles (inverse execution time, Section 5.2).
     */
    double performance = 0.0;
};

/** Simulation configuration. */
struct SimParams
{
    /** References each core issues per epoch. */
    std::uint64_t refsPerEpochPerCore = 24000;
    /** Recorded epochs. */
    std::uint32_t epochs = 20;
    /** Unrecorded cache-warmup epochs. */
    std::uint32_t warmupEpochs = 2;
};

/**
 * Drives one workload through one memory system.
 */
class Simulation
{
  public:
    /**
     * @param system Memory system under test (not owned).
     * @param workload Reference streams (not owned).
     * @param params Run parameters.
     */
    Simulation(MemorySystem &system, Workload &workload,
               const SimParams &params);

    /** Run warmup + recorded epochs and aggregate. */
    RunResult run();

    /**
     * Advance the run by exactly one epoch (warmup or recorded).
     * `run()` is `while (!done()) stepEpoch();` + `finish()`; the
     * checkpointing CLI drives the same loop itself so it can
     * serialize state and poll signals between epochs. No-op once
     * done().
     */
    void stepEpoch();

    /** Have all warmup + recorded epochs run? */
    bool done() const;

    /** Aggregate the recorded epochs into a RunResult. */
    RunResult finish() const;

    /** Recorded epochs completed so far. */
    std::uint64_t recordedEpochs() const { return recordedCount_; }

    /**
     * Serialize/restore run progress: core clocks, epoch cursor,
     * post-warmup baselines, and the recorded per-epoch metrics.
     * The attached system/workload/registry are serialized by their
     * owners; restore must rebuild this Simulation over identically
     * configured ones.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

    /**
     * Attach a tracer (not owned; nullptr detaches). The simulation
     * stamps the epoch id and simulated time into it, forwards it
     * to the system, and emits one "epoch" event per epoch with the
     * throughput and total misses.
     */
    void setTracer(Tracer *tracer);

    /**
     * Attach a stats registry (not owned). The simulation snapshots
     * it at the end of every *recorded* epoch, so per-epoch CSV
     * rows line up with RunResult::epochs.
     */
    void setRegistry(StatsRegistry *registry) { registry_ = registry; }

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    /** Stamp warmup complete and capture the metric baselines. */
    void markWarmupDone();

    /**
     * Run one epoch (workload beginEpoch, the accesses, the system's
     * epoch boundary) and write its metrics into caller-provided
     * storage. `metrics` arrives with its per-core vectors already
     * sized (the ctor pre-sizes every slot of recorded_ and the
     * warmup scratch), so one epoch touches the heap zero times in
     * steady state.
     */
    void runEpochInto(EpochId epoch, EpochMetrics &metrics);

    // MemorySystem and Workload have their own saveState; the run
    // driver checkpoints each component separately.
    MemorySystem &system_; // ckpt: transient(wiring; see above)
    Workload &workload_; // ckpt: transient(wiring; see system_)
    SimParams params_;   // ckpt: derived(Simulation)
    /** Per-core cycle clocks (fractional accumulation). */
    std::vector<double> cycles_;
    /** Per-core retired instructions. */
    std::vector<double> instrs_;
    EpochId nextEpoch_ = 0;
    /** Warmup finished and baselines captured. */
    bool warmupDone_ = false;
    /** Core clocks at the end of warmup (finish() deltas). */
    std::vector<double> baselineCycles_;
    /** Retired instructions at the end of warmup. */
    std::vector<double> baselineInstrs_;
    /**
     * Metrics of the recorded epochs: sized to params_.epochs at
     * construction with every slot's vectors pre-sized, filled in
     * place through the recordedCount_ cursor. Serialization writes
     * only the first recordedCount_ slots, so the checkpoint byte
     * stream is identical to the old grow-on-push encoding.
     */
    std::vector<EpochMetrics> recorded_;
    /** Recorded epochs completed (valid prefix of recorded_). */
    std::uint64_t recordedCount_ = 0;
    /** Per-epoch start-of-epoch baselines (reused scratch,
     *  recaptured at the top of every runEpochInto call). */
    std::vector<double> epochCycles0_;   // ckpt: transient(scratch)
    std::vector<double> epochInstrs0_;   // ckpt: transient(scratch)
    std::vector<std::uint64_t> epochMisses0_; // ckpt: transient(scratch)
    /** Metrics sink for warmup epochs (measured, discarded). */
    EpochMetrics warmupScratch_; // ckpt: transient(scratch)
    /** Decision-provenance tracer (not owned; null = disabled). */
    Tracer *tracer_ = nullptr; // ckpt: transient(wiring; reattached by owner)
    /** Per-epoch snapshot target (not owned; null = disabled). */
    StatsRegistry *registry_ = nullptr; // ckpt: transient(wiring; reattached by owner)
};

/**
 * Per-core IPC over an interval: each core's instructions retired
 * between two snapshots of the clocks over the cycles it spent, 0
 * for a core that spent none. Writes into `ipc`, which the caller
 * has sized to the core count, so the run loop stays
 * allocation-free.
 */
void intervalIpc(const std::vector<double> &cycles0,
                 const std::vector<double> &instrs0,
                 const std::vector<double> &cycles,
                 const std::vector<double> &instrs,
                 std::vector<double> &ipc);

/**
 * Core-model epoch driver over any object with
 * `AccessResult access(const MemAccess&, Cycle)` — used by
 * Simulation, and directly by the ideal offline scheme's probes,
 * which run one epoch on a copy of the live Hierarchy.
 *
 * Cores are interleaved reference-by-reference in round-robin
 * order, which approximates concurrent execution closely enough
 * for the shared-state interactions that matter here (bus
 * busy-until tracking and shared-cache contention).
 */
template <typename System>
void
runEpochAccesses(System &system, Workload &workload,
                 std::uint64_t refs_per_core,
                 std::vector<double> &cycles,
                 std::vector<double> &instrs)
{
    const std::uint32_t cores = workload.numCores();
    for (std::uint64_t r = 0; r < refs_per_core; ++r) {
        for (std::uint32_t c = 0; c < cores; ++c) {
            const MemAccess access =
                workload.next(static_cast<CoreId>(c));
            const AccessResult result = system.access(
                access, static_cast<Cycle>(cycles[c]));
            cycles[c] += cyclesForAccess(result.latency);
            instrs[c] += instrPerAccess;
        }
    }
}

} // namespace morphcache

#endif // MORPHCACHE_SIM_SIMULATION_HH
