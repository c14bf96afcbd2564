/**
 * @file
 * The ideal offline topology scheme of Figure 15.
 *
 * At the start of every recorded epoch the scheme "knows the
 * future": it runs the upcoming epoch under every candidate static
 * topology on copies of the live hierarchy and workload, observes
 * the throughput of each, discards the copies, and commits the
 * winner for the real epoch, which Simulation then runs and
 * measures like any other. The paper uses this impractical oracle
 * as the upper bound MorphCache is measured against (it reaches
 * ~97% of it).
 */

#ifndef MORPHCACHE_BASELINES_IDEAL_OFFLINE_HH
#define MORPHCACHE_BASELINES_IDEAL_OFFLINE_HH

#include <string>
#include <vector>

#include "hierarchy/hierarchy.hh"
#include "hierarchy/topology.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {

/** Result of an ideal offline run. */
struct IdealOfflineResult
{
    /** Standard run metrics. */
    RunResult run;
    /** Topology chosen for each recorded epoch. */
    std::vector<std::string> chosenTopology;
};

/**
 * Run the ideal offline scheme: Simulation drives a
 * StaticTopologySystem built on the first candidate, which also
 * serves the warmup epochs. Before every recorded epoch the probes'
 * winner is committed, with a reconfigure even when it is already
 * in place.
 *
 * @param params Hierarchy parameters; their latencies follow
 *        staticLatencyModel() with the remote premium, matching the
 *        static configurations it chooses among.
 * @param candidates Candidate static topologies (the paper uses
 *        the five static configurations of Section 5).
 * @param workload Workload (consumed; advanced like a normal run).
 * @param sim Simulation parameters.
 */
IdealOfflineResult
runIdealOffline(HierarchyParams params,
                const std::vector<Topology> &candidates,
                Workload &workload, const SimParams &sim);

} // namespace morphcache

#endif // MORPHCACHE_BASELINES_IDEAL_OFFLINE_HH
