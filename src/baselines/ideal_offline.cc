#include "baselines/ideal_offline.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/memory_system.hh"
#include "stats/metrics.hh"

namespace morphcache {

namespace {

/** Throughput of running one epoch on a scratch copy of the state. */
double
probeEpochThroughput(const Hierarchy &checkpoint_h,
                     const Workload &checkpoint_w,
                     const std::vector<double> &cycles0,
                     const std::vector<double> &instrs0,
                     const Topology &topology, EpochId epoch,
                     const SimParams &sim)
{
    Hierarchy h = checkpoint_h; // full cache-state copy
    const std::unique_ptr<Workload> w = checkpoint_w.clone();
    std::vector<double> cycles = cycles0;
    std::vector<double> instrs = instrs0;

    h.reconfigure(topology);
    w->beginEpoch(epoch);
    runEpochAccesses(h, *w, sim.refsPerEpochPerCore, cycles, instrs);

    std::vector<double> ipc(cycles.size());
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        const double dcycles = cycles[c] - cycles0[c];
        ipc[c] = dcycles > 0.0
                     ? (instrs[c] - instrs0[c]) / dcycles
                     : 0.0;
    }
    return throughput(ipc);
}

} // namespace

IdealOfflineResult
runIdealOffline(HierarchyParams params,
                const std::vector<Topology> &candidates,
                Workload &workload, const SimParams &sim)
{
    MC_ASSERT(!candidates.empty());
    // The oracle chooses among *static* topologies, so it pays their
    // latencies.
    Hierarchy hierarchy(
        staticLatencyModel(std::move(params), /*charge_remote=*/true));
    hierarchy.reconfigure(candidates.front());

    const std::uint32_t cores = workload.numCores();
    std::vector<double> cycles(cores, 0.0);
    std::vector<double> instrs(cores, 0.0);

    EpochId epoch = 0;
    for (std::uint32_t w = 0; w < sim.warmupEpochs; ++w) {
        workload.beginEpoch(epoch);
        runEpochAccesses(hierarchy, workload, sim.refsPerEpochPerCore,
                         cycles, instrs);
        ++epoch;
    }

    IdealOfflineResult result;
    const std::vector<double> run_cycles0 = cycles;
    const std::vector<double> run_instrs0 = instrs;

    for (std::uint32_t e = 0; e < sim.epochs; ++e, ++epoch) {
        // Probe every candidate from a checkpoint, commit the best.
        std::size_t best = 0;
        double best_throughput = -1.0;
        for (std::size_t t = 0; t < candidates.size(); ++t) {
            const double tput = probeEpochThroughput(
                hierarchy, workload, cycles, instrs, candidates[t],
                epoch, sim);
            if (tput > best_throughput) {
                best_throughput = tput;
                best = t;
            }
        }

        hierarchy.reconfigure(candidates[best]);
        result.chosenTopology.push_back(candidates[best].name());

        const std::vector<double> cycles0 = cycles;
        const std::vector<double> instrs0 = instrs;
        std::vector<std::uint64_t> misses0(cores);
        for (std::uint32_t c = 0; c < cores; ++c)
            misses0[c] = hierarchy.coreStats(static_cast<CoreId>(c)).misses();
        workload.beginEpoch(epoch);
        runEpochAccesses(hierarchy, workload, sim.refsPerEpochPerCore,
                         cycles, instrs);

        EpochMetrics metrics;
        metrics.ipc.resize(cores);
        metrics.misses.resize(cores);
        for (std::uint32_t c = 0; c < cores; ++c) {
            const double dcycles = cycles[c] - cycles0[c];
            metrics.ipc[c] =
                dcycles > 0.0 ? (instrs[c] - instrs0[c]) / dcycles
                              : 0.0;
            metrics.misses[c] =
                hierarchy.coreStats(static_cast<CoreId>(c)).misses() -
                misses0[c];
        }
        metrics.throughput = throughput(metrics.ipc);
        result.run.epochs.push_back(std::move(metrics));
    }

    result.run.avgIpc.resize(cores);
    double max_cycles = 0.0, total_instr = 0.0;
    for (std::uint32_t c = 0; c < cores; ++c) {
        const double dcycles = cycles[c] - run_cycles0[c];
        const double dinstr = instrs[c] - run_instrs0[c];
        result.run.avgIpc[c] = dcycles > 0.0 ? dinstr / dcycles : 0.0;
        max_cycles = std::max(max_cycles, dcycles);
        total_instr += dinstr;
    }
    result.run.avgThroughput = throughput(result.run.avgIpc);
    result.run.performance =
        max_cycles > 0.0 ? total_instr / max_cycles : 0.0;
    return result;
}

} // namespace morphcache
