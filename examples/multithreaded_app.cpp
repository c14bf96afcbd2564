/**
 * @file
 * Multithreaded scenario: run a PARSEC application with 16 threads
 * under MorphCache and the static topologies, reporting performance
 * (inverse execution time) and the data-sharing merges MorphCache
 * performed.
 *
 * Usage: multithreaded_app [benchmark]   (default: dedup)
 */

#include <cstdio>
#include <string>

#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

using namespace morphcache;

int
main(int argc, char **argv)
{
    const std::string bench = argc > 1 ? argv[1] : "dedup";
    const BenchmarkProfile &profile = profileByName(bench);
    if (!profile.multithreaded) {
        std::fprintf(stderr,
                     "%s is single-threaded; pick a PARSEC app\n",
                     bench.c_str());
        return 1;
    }

    HierarchyParams hier = experimentHierarchy(16);
    hier.coherence = true; // one shared address space
    SimParams sim;
    sim.epochs = 10;

    const GeneratorParams gen = generatorFor(hier);

    std::printf("%s, 16 threads: performance (1/exec-time, "
                "normalized to (16:1:1))\n", bench.c_str());

    double base = 0.0;
    struct { const char *label; int x, y, z; } statics[] = {
        {"(16:1:1)", 16, 1, 1}, {"(1:1:16)", 1, 1, 16},
        {"(4:4:1)", 4, 4, 1},   {"(8:2:1)", 8, 2, 1},
        {"(1:16:1)", 1, 16, 1},
    };
    for (const auto &s : statics) {
        MultithreadedWorkload workload(profile, 16, gen, 42);
        StaticTopologySystem sys(
            hier, Topology::symmetric(16, s.x, s.y, s.z));
        Simulation simulation(sys, workload, sim);
        const double perf = simulation.run().performance;
        if (base == 0.0)
            base = perf;
        std::printf("  %-12s %.3f\n", s.label, perf / base);
    }

    MultithreadedWorkload workload(profile, 16, gen, 42);
    MorphCacheSystem sys(hier, MorphConfig{});
    Simulation simulation(sys, workload, sim);
    const double perf = simulation.run().performance;
    std::printf("  %-12s %.3f\n", "MorphCache", perf / base);
    std::printf("  merges %llu, splits %llu, final topology %s\n",
                static_cast<unsigned long long>(
                    sys.controller().stats().merges),
                static_cast<unsigned long long>(
                    sys.controller().stats().splits),
                sys.hierarchy().topology().name().c_str());
    return 0;
}
