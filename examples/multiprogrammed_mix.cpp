/**
 * @file
 * Multiprogrammed scenario: run any Table 5 mix under every scheme
 * in the paper — static topologies, MorphCache, PIPP, DSR — and
 * print a comparison table.
 *
 * Usage: multiprogrammed_mix [MIX_NUMBER]   (default 1)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/dsr.hh"
#include "baselines/pipp.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

using namespace morphcache;

namespace {

double
runScheme(MemorySystem &system, const MixSpec &mix,
          const GeneratorParams &gen, const SimParams &sim)
{
    MixWorkload workload(mix, gen, /*seed=*/42);
    Simulation simulation(system, workload, sim);
    return simulation.run().avgThroughput;
}

} // namespace

int
main(int argc, char **argv)
{
    int mix_no = argc > 1 ? std::atoi(argv[1]) : 1;
    if (mix_no < 1 || mix_no > 12) {
        std::fprintf(stderr, "usage: %s [1..12]\n", argv[0]);
        return 1;
    }
    char mix_name[16];
    std::snprintf(mix_name, sizeof(mix_name), "MIX %02d", mix_no);
    const MixSpec &mix = mixByName(mix_name);

    const HierarchyParams hier = experimentHierarchy(16);
    SimParams sim;
    sim.epochs = 10;

    const GeneratorParams gen = generatorFor(hier);

    std::printf("%-14s  throughput (sum of IPCs)\n", mix.name);

    struct { const char *label; int x, y, z; } statics[] = {
        {"(16:1:1)", 16, 1, 1}, {"(1:1:16)", 1, 1, 16},
        {"(4:4:1)", 4, 4, 1},   {"(8:2:1)", 8, 2, 1},
        {"(1:16:1)", 1, 16, 1},
    };
    double base = 0.0;
    for (const auto &s : statics) {
        StaticTopologySystem sys(
            hier, Topology::symmetric(16, s.x, s.y, s.z));
        const double tput = runScheme(sys, mix, gen, sim);
        if (base == 0.0)
            base = tput;
        std::printf("  %-12s %6.3f  (%.3fx)\n", s.label, tput,
                    tput / base);
    }
    {
        const auto sys = makePippSystem(hier);
        const double tput = runScheme(*sys, mix, gen, sim);
        std::printf("  %-12s %6.3f  (%.3fx)\n", "PIPP", tput,
                    tput / base);
    }
    {
        const auto sys = makeDsrSystem(hier);
        const double tput = runScheme(*sys, mix, gen, sim);
        std::printf("  %-12s %6.3f  (%.3fx)\n", "DSR", tput,
                    tput / base);
    }
    {
        MorphCacheSystem sys(hier, MorphConfig{});
        const double tput = runScheme(sys, mix, gen, sim);
        std::printf("  %-12s %6.3f  (%.3fx)\n", "MorphCache", tput,
                    tput / base);
    }
    return 0;
}
