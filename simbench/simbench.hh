/**
 * @file
 * Host-speed benchmark of the simulator.
 *
 * A benchmark workload is a fixed list of simulation cells (RunSpecs)
 * run back to back in one thread. Each cell is run two ways:
 *
 *  - untraced: buildRun -> Simulation -> epoch loop -> finish(), the
 *    path a user of the simulator takes, timed from outside;
 *  - traced: the same objects wrapped in decorators over the public
 *    Workload and MemorySystem interfaces, which time reference
 *    generation, every access (split by ServedBy class) and every
 *    epoch boundary, and record spans.
 *
 * Both runs end in a digest of everything the cell simulated, so a
 * traced replay and a repeat must reproduce the untraced run's bytes.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ckpt/run_spec.hh"

namespace morphcache {
class MemorySystem;
struct RunResult;
} // namespace morphcache

namespace simbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host-speed calibration. Other tenants of a shared host slow its
 * cores by tens of percent for minutes at a time, which no statistic
 * over one short run can remove. So every epoch, and every set-up
 * sample, is preceded by one run of a fixed register-only integer
 * loop, and each host time is scaled by the loop's nominal time over
 * its measured time. The benchmark reports these calibrated seconds:
 * the wall time the same work takes while the loop runs at its
 * nominal speed, its fastest time on a 2.0 GHz Xeon. The loop
 * touches no memory, so it leaves the simulator's cache state alone.
 */
constexpr double calibrationNominalNs = 320000;

/** Run the calibration loop once and return its wall time in ns. */
std::int64_t calibrationLoopNs();

/**
 * Nominal over measured calibration time, from the loop times taken
 * during one cell run. The median: an interrupt that lands inside one
 * loop must not rescale the whole run.
 */
double hostScale(std::vector<std::int64_t> loop_ns);

/** ServedBy classes, in enum order. */
constexpr std::size_t numServedClasses = 7;

/** Metric-name spelling of a ServedBy class ("l2_local", ...). */
const char *servedClassName(std::size_t cls);

/** A named benchmark workload: cells run back to back. */
struct WorkloadDef
{
    std::string name;
    std::vector<morphcache::RunSpec> cells;
};

/**
 * The cells of a workload for a seed. `tiny` shrinks every cell to
 * a few hundred references per core (self-test size). Throws
 * std::invalid_argument on an unknown name.
 */
WorkloadDef workloadByName(const std::string &name, std::uint64_t seed,
                           bool tiny);

/** Short cell label: "<workload spec>/<scheme>". */
std::string cellLabel(const morphcache::RunSpec &spec);

/** Host time one traced cell spent in each layer, calibrated. */
struct LayerTimes
{
    /** Epochs run (warmup + recorded). */
    std::uint64_t epochs = 0;
    /** Workload::beginEpoch (working-set re-draw). */
    double beginEpochNs = 0;
    /** Reference-block generation, beginEpoch excluded. */
    double generateNs = 0;
    /** MemorySystem::access, timer overhead subtracted. */
    double accessNs = 0;
    double servedNs[numServedClasses] = {};
    /** MemorySystem::epochBoundary. */
    double boundaryNs = 0;
    /** Profiler ReconfigApply phase. */
    double reconfigApplyNs = 0;
    /** Epoch spans' self time, timer overhead subtracted. */
    double driverNs = 0;
};

/** Everything one run of one cell produced. */
struct CellOutcome
{
    std::string label;
    /** False if the cell threw or failed a check; see `error`. */
    bool ok = true;
    std::string error;
    /** Hash of CoreStats, RunResult and the registry (see digest). */
    std::uint64_t digest = 0;
    /** References issued, warmup epochs included. */
    std::uint64_t refs = 0;
    /**
     * hostScale() of this run's calibration loops: wall seconds times
     * hostScale are the calibrated seconds below.
     */
    double hostScale = 1;
    /** buildRun + Simulation construction, calibrated seconds. */
    double setupS = 0;
    /** The epoch loop alone, calibrated seconds. */
    double loopS = 0;
    /**
     * buildRun through finish(), calibration loops excluded,
     * calibrated seconds.
     */
    double runS = 0;
    /** avgThroughput for mixes, performance for PARSEC. */
    double simIpc = 0;
    /** The scheme registered a stats registry. */
    bool hasRegistry = false;
    /**
     * Exact work counts: served-by classes and writebacks from
     * CoreStats, registry tallies where the scheme registers them,
     * and heap allocations across the epoch loop.
     */
    std::map<std::string, std::uint64_t> counters;
    /** Traced runs only. */
    LayerTimes layers;
};

/**
 * Finish a cell run: digest of every core's CoreStats, the bit
 * patterns of the RunResult doubles and every registered stat; the
 * work counters; the simulated IPC; and the check that the ServedBy
 * classes sum to the references issued (`out.refs`).
 */
void recordOutcome(CellOutcome &out, morphcache::MemorySystem &system,
                   const morphcache::RunResult &result,
                   bool shared_space);

/** Run one cell the way a user would, timed from outside. */
CellOutcome runCell(const morphcache::RunSpec &spec);

/** Wall seconds of buildRun + Simulation construction. */
double timeSetup(const morphcache::RunSpec &spec);

/** Calibrated cost of a pair of nowNs() calls. */
struct TimerCost
{
    /** Share of the pair that lands inside the timed interval. */
    double insideNs = 0;
    /** Share that lands outside it, in the caller. */
    double outsideNs = 0;
};

TimerCost calibrateTimer();

/** One recorded span. Spans of one traced cell share `trace`. */
struct Span
{
    std::uint32_t trace = 0;
    std::uint32_t id = 0;
    /** 0 = root. */
    std::uint32_t parent = 0;
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /**
     * Time the layer was busy inside [startNs, endNs]: the duration
     * for ordinary spans, the timer-corrected sum of the calls for
     * the aggregated per-epoch hierarchy.access span.
     */
    std::int64_t busyNs = 0;
    /** Calls aggregated into the span (1 for ordinary spans). */
    std::uint64_t count = 1;
    /** Epoch spans: busy time not covered by a child span. */
    std::int64_t selfNs = 0;
};

/** In-memory span store, written out once when the run ends. */
class SpanLog
{
  public:
    std::uint32_t newTrace() { return ++traces_; }
    std::uint32_t newId() { return ++ids_; }
    void add(const Span &span) { spans_.push_back(span); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::uint32_t traces_ = 0;
    std::uint32_t ids_ = 0;
};

/**
 * Run one cell through the tracing decorators. With `corrupt`, one
 * reference of the replayed stream is altered, which the digest
 * comparison must catch.
 */
CellOutcome runCellTraced(const morphcache::RunSpec &spec,
                          const TimerCost &timer, SpanLog &log,
                          bool corrupt);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
