#include "baselines/ideal_offline.hh"

#include "common/logging.hh"
#include "sim/memory_system.hh"
#include "stats/metrics.hh"

namespace morphcache {

namespace {

/**
 * Throughput of the next epoch under `topology`, run on copies of the
 * live hierarchy and workload. The clocks start at zero: the static
 * latency model never charges the bus, so no latency reads the clock,
 * and every cycle increment is a multiple of 0.5, so the per-core
 * sums equal the live clocks' deltas exactly.
 */
double
probeEpochThroughput(const Hierarchy &live, const Workload &workload,
                     const Topology &topology, EpochId epoch,
                     std::uint64_t refs_per_core)
{
    MC_ASSERT(live.l2().params().remoteCost != RemoteCost::Bus &&
              live.l3().params().remoteCost != RemoteCost::Bus);
    Hierarchy h = live; // full cache-state copy
    const std::unique_ptr<Workload> w = workload.clone();
    const std::vector<double> zero(w->numCores(), 0.0);
    std::vector<double> cycles = zero;
    std::vector<double> instrs = zero;

    h.reconfigure(topology);
    w->beginEpoch(epoch);
    runEpochAccesses(h, *w, refs_per_core, cycles, instrs);

    std::vector<double> ipc(cycles.size());
    intervalIpc(zero, zero, cycles, instrs, ipc);
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
    StaticTopologySystem system(std::move(params), candidates.front());
    Simulation simulation(system, workload, sim);

    IdealOfflineResult result;
    for (EpochId epoch = 0; !simulation.done(); ++epoch) {
        if (epoch >= sim.warmupEpochs) {
            // Probe every candidate on copies, commit the best.
            std::size_t best = 0;
            double best_throughput = -1.0;
            for (std::size_t t = 0; t < candidates.size(); ++t) {
                const double tput = probeEpochThroughput(
                    system.hierarchy(), workload, candidates[t], epoch,
                    sim.refsPerEpochPerCore);
                if (tput > best_throughput) {
                    best_throughput = tput;
                    best = t;
                }
            }
            system.hierarchy().reconfigure(candidates[best]);
            result.chosenTopology.push_back(candidates[best].name());
        }
        simulation.stepEpoch();
    }
    result.run = simulation.finish();
    return result;
}

} // namespace morphcache
