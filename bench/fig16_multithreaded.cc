/**
 * @file
 * Figure 16 — multithreaded (PARSEC) performance of MorphCache
 * versus the static topologies, one application at a time with 16
 * threads, measured as inverse execution time and normalized to
 * (16:1:1).
 *
 * Paper: MorphCache +25.6% over (16:1:1), +30.4% over (1:1:16),
 * +12.3% over (4:4:1), +7.5% over (8:2:1), +8.5% over (1:16:1);
 * facesim, ferret, freqmine and x264 (high spatial sigma) benefit
 * most.
 */

#include "common.hh"

using namespace morphcache;
using namespace morphcache::bench;

int
main()
{
    HierarchyParams hier = experimentHierarchy(16);
    hier.coherence = true;
    const GeneratorParams gen = generatorFor(hier);
    const SimParams sim = defaultSim();
    const auto topologies = paperStaticTopologies();

    std::printf("Figure 16: PARSEC performance (1/exec-time) "
                "normalized to (16:1:1)\n");
    std::printf("%-14s", "app");
    for (const auto &topo : topologies)
        std::printf(" %9s", topo.name().c_str());
    std::printf(" %9s\n", "morph");

    // One parallel cell per PARSEC application: every topology plus
    // MorphCache, normalized to the application's first (baseline)
    // topology run.
    const auto &profiles = parsecProfiles();
    const auto rows = parallelRows(profiles.size(), [&](std::size_t p) {
        const BenchmarkProfile &profile = profiles[p];
        std::vector<double> norm;
        double base = 0.0;
        for (const auto &topo : topologies) {
            MultithreadedWorkload workload(profile, 16, gen,
                                           baseSeed());
            StaticTopologySystem system(hier, topo);
            Simulation simulation(system, workload, sim);
            const double perf = simulation.run().performance;
            if (base == 0.0)
                base = perf;
            norm.push_back(perf / base);
        }
        MultithreadedWorkload workload(profile, 16, gen, baseSeed());
        MorphCacheSystem system(hier, MorphConfig{});
        Simulation simulation(system, workload, sim);
        norm.push_back(simulation.run().performance / base);
        return norm;
    });

    std::vector<double> sums(topologies.size() + 1, 0.0);
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        std::printf("%-14s", profiles[p].name);
        for (std::size_t col = 0; col < rows[p].size(); ++col) {
            std::printf(" %9.3f", rows[p][col]);
            sums[col] += rows[p][col];
        }
        std::printf("\n");
    }
    std::printf("%-14s", "AVG");
    for (double s : sums)
        std::printf(" %9.3f",
                    s / static_cast<double>(profiles.size()));
    std::printf("\n\npaper averages: 1.000 / 0.96 / 1.12 / 1.17 / "
                "1.16 / 1.256\n");
    return 0;
}
