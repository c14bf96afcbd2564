/**
 * @file
 * Workload definitions, the untraced cell runner, and the digest and
 * work counters every cell run ends with.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "perf/allocmeter.hh"
#include "runner/run_factory.hh"
#include "simbench.hh"
#include "stats/registry.hh"

namespace simbench {

using namespace morphcache;

const char *
servedClassName(std::size_t cls)
{
    static const char *const names[numServedClasses] = {
        "l1",       "l2_local",    "l2_remote", "l3_local",
        "l3_remote", "other_group", "memory"};
    return cls < numServedClasses ? names[cls] : "unknown";
}

namespace {

/** Where the calibration loop's result goes, so it is not elided. */
volatile std::uint64_t calibrationSink = 0;

} // namespace

std::int64_t
calibrationLoopNs()
{
    // xorshift64 feeding a modulo and a data-dependent branch: the
    // integer and branch-prediction work the simulator's inner loop
    // is made of, without its memory traffic.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < 100000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x % 1000003) ^ (acc >> 3);
        if (acc & 1)
            acc *= 3;
    }
    const std::int64_t t1 = nowNs();
    calibrationSink = acc;
    return t1 - t0;
}

double
hostScale(std::vector<std::int64_t> loop_ns)
{
    if (loop_ns.empty())
        return 1;
    const auto mid = loop_ns.begin() +
                     static_cast<std::ptrdiff_t>(loop_ns.size() / 2);
    std::nth_element(loop_ns.begin(), mid, loop_ns.end());
    return calibrationNominalNs /
           static_cast<double>(std::max<std::int64_t>(*mid, 1));
}

namespace {

/**
 * Streams per cell configuration. Each runs with its own seed drawn
 * from the workload seed, which averages out how much one seed's
 * streams happen to cost.
 */
constexpr std::uint64_t streamsPerConfig = 4;

void
addCells(WorkloadDef &def, const char *workload, const char *scheme,
         bool paper_scale, std::uint64_t refs, std::uint64_t seed,
         bool tiny)
{
    for (std::uint64_t j = 0; j < streamsPerConfig; ++j) {
        RunSpec spec;
        spec.workload = workload;
        spec.scheme = scheme;
        spec.paperScale = paper_scale;
        spec.cores = 16;
        spec.epochs = tiny ? 2 : 8;
        spec.refs = tiny ? 300 : refs;
        spec.seed = seed + j * 0x9e3779b97f4a7c15ULL;
        def.cells.push_back(spec);
    }
}

} // namespace

WorkloadDef
workloadByName(const std::string &name, std::uint64_t seed, bool tiny)
{
    // References per core per epoch, sized so that one pass over a
    // workload's cells takes under two seconds on one core of a
    // 2 GHz Xeon: a 20 s run then holds the ten or more passes the
    // fastest-pass estimator needs.
    WorkloadDef def;
    def.name = name;
    if (name == "mix-morph") {
        addCells(def, "mix:11", "morph", false, 6000, seed, tiny);
    } else if (name == "mix-baselines") {
        for (const char *scheme : {"ucp", "pipp", "dsr"})
            addCells(def, "mix:11", scheme, false, 1000, seed, tiny);
    } else if (name == "paper-shared") {
        addCells(def, "mix:11", "static:16:1:1", true, 2000, seed,
                 tiny);
    } else if (name == "parsec-coherence") {
        addCells(def, "parsec:canneal", "morph", false, 3000, seed,
                 tiny);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return def;
}

std::string
cellLabel(const RunSpec &spec)
{
    return spec.workload + "/" + spec.scheme +
           (spec.paperScale ? "/paper" : "") + "/s" +
           std::to_string(spec.seed);
}

namespace {

/** FNV-1a 64 over raw bytes. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Registry tallies copied into the cell's work counters. */
const char *const registryCounters[] = {
    "hier.l2.sliceProbes",
    "hier.l3.sliceProbes",
    "hier.l2.fills",
    "hier.l3.fills",
    "hier.l2.lazyInvalidations",
    "hier.l3.lazyInvalidations",
    "hier.l2.coherenceInvalidations",
    "hier.l3.coherenceInvalidations",
    "hier.l2.inclusionInvalidations",
    "hier.l3.inclusionInvalidations",
    "hier.l2.busEvents",
    "hier.l3.busEvents",
    "hier.l2.busSpanTiles",
    "hier.l3.busSpanTiles",
    "bus.l2.transactions",
    "bus.l3.transactions",
    "bus.l2.queueCycles",
    "bus.l3.queueCycles",
    "morph.decisions",
    "morph.merges",
    "morph.splits",
    "morph.activeEpochs",
};

} // namespace

void
recordOutcome(CellOutcome &out, MemorySystem &system,
              const RunResult &result, bool shared_space)
{
    Digest digest;
    std::uint64_t served[numServedClasses] = {};
    std::uint64_t accesses = 0;
    std::uint64_t writebacks = 0;
    for (std::uint32_t c = 0; c < system.numCores(); ++c) {
        const CoreStats &s = system.coreStats(static_cast<CoreId>(c));
        for (std::uint64_t v :
             {s.accesses, s.l1Hits, s.l2LocalHits, s.l2RemoteHits,
              s.l3LocalHits, s.l3RemoteHits, s.otherGroupTransfers,
              s.memAccesses, s.writebacks, s.totalLatency})
            digest.u64(v);
        accesses += s.accesses;
        writebacks += s.writebacks;
        served[0] += s.l1Hits;
        served[1] += s.l2LocalHits;
        served[2] += s.l2RemoteHits;
        served[3] += s.l3LocalHits;
        served[4] += s.l3RemoteHits;
        served[5] += s.otherGroupTransfers;
        served[6] += s.memAccesses;
    }

    for (const EpochMetrics &epoch : result.epochs) {
        for (double ipc : epoch.ipc)
            digest.f64(ipc);
        digest.f64(epoch.throughput);
        for (std::uint64_t m : epoch.misses)
            digest.u64(m);
    }
    for (double ipc : result.avgIpc)
        digest.f64(ipc);
    digest.f64(result.avgThroughput);
    digest.f64(result.performance);

    // Registered after the run: bound stats sample live values at
    // read time, so registration stays out of every timed window.
    StatsRegistry registry;
    system.registerStats(registry);
    out.hasRegistry = registry.size() > 0;
    for (const std::string &name : registry.names()) {
        digest.str(name);
        digest.f64(registry.value(name));
    }
    for (const char *name : registryCounters) {
        if (registry.has(name))
            out.counters[name] =
                static_cast<std::uint64_t>(registry.value(name));
    }

    out.counters["accesses"] = accesses;
    out.counters["writebacks"] = writebacks;
    std::uint64_t served_sum = 0;
    for (std::size_t cls = 0; cls < numServedClasses; ++cls) {
        out.counters[std::string("served.") + servedClassName(cls)] =
            served[cls];
        served_sum += served[cls];
    }
    out.digest = digest.value();
    out.simIpc =
        shared_space ? result.performance : result.avgThroughput;

    if (out.ok && (served_sum != accesses || accesses != out.refs)) {
        out.ok = false;
        out.error = "served-by classes sum to " +
                    std::to_string(served_sum) + " of " +
                    std::to_string(accesses) + " accesses, " +
                    std::to_string(out.refs) + " references issued";
    }
    if (out.ok && !(out.simIpc > 0.0 && std::isfinite(out.simIpc))) {
        out.ok = false;
        out.error = "non-positive simulated throughput";
    }
}

CellOutcome
runCell(const RunSpec &spec)
{
    CellOutcome out;
    out.label = cellLabel(spec);
    try {
        const std::int64_t t0 = nowNs();
        BuiltRun built = buildRun(spec);
        Simulation sim(*built.system, *built.workload, built.sim);
        const std::int64_t t1 = nowNs();

        std::vector<std::int64_t> calib;
        calib.reserve(built.sim.warmupEpochs + built.sim.epochs);
        std::int64_t calib_ns = 0;
        std::int64_t loop_ns = 0;
        AllocMeter::setEnabled(true);
        const AllocSnapshot alloc0 = AllocMeter::snapshot();
        while (!sim.done()) {
            calib.push_back(calibrationLoopNs());
            calib_ns += calib.back();
            const std::int64_t e0 = nowNs();
            sim.stepEpoch();
            loop_ns += nowNs() - e0;
        }
        const AllocSnapshot alloc1 = AllocMeter::snapshot();
        AllocMeter::setEnabled(false);

        const RunResult result = sim.finish();
        const std::int64_t t2 = nowNs();

        out.hostScale = hostScale(std::move(calib));
        const double scale = out.hostScale / 1e9;
        out.setupS = static_cast<double>(t1 - t0) * scale;
        out.loopS = static_cast<double>(loop_ns) * scale;
        out.runS = static_cast<double>(t2 - t0 - calib_ns) * scale;
        out.refs = static_cast<std::uint64_t>(built.sim.epochs +
                                              built.sim.warmupEpochs) *
                   built.sim.refsPerEpochPerCore *
                   built.workload->numCores();
        out.counters["sim.loopAllocCalls"] =
            allocDelta(alloc0, alloc1).calls;
        recordOutcome(out, *built.system, result, built.sharedSpace);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

double
timeSetup(const RunSpec &spec)
{
    const std::int64_t t0 = nowNs();
    BuiltRun built = buildRun(spec);
    Simulation sim(*built.system, *built.workload, built.sim);
    const std::int64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / 1e9;
}

} // namespace simbench
