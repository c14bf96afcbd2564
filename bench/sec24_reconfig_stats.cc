/**
 * @file
 * Section 2.4 — reconfiguration activity statistics.
 *
 * Counts merges/splits per workload and the fraction of merge/split
 * events whose resulting configuration was asymmetric.
 *
 * Paper (full-length runs): multiprogrammed 5,248-12,176 events
 * (avg 9,654) with 39% asymmetric outcomes; multithreaded 263-1,043
 * (avg 856) with 54% asymmetric. Absolute counts scale with run
 * length (the paper simulates orders of magnitude more epochs);
 * the asymmetric fractions and the multiprogrammed>multithreaded
 * activity ordering are the comparable shape.
 */

#include "common.hh"

using namespace morphcache;
using namespace morphcache::bench;

int
main()
{
    const SimParams sim = defaultSim();

    std::printf("Section 2.4: reconfiguration statistics over %u "
                "epochs\n\n",
                sim.epochs);

    std::printf("multiprogrammed mixes:\n");
    std::uint64_t total = 0, asym = 0;
    std::uint64_t min_events = ~0ULL, max_events = 0;
    {
        const HierarchyParams hier = experimentHierarchy(16);
        const GeneratorParams gen = generatorFor(hier);
        for (int m = 1; m <= 12; ++m) {
            char name[16];
            std::snprintf(name, sizeof(name), "MIX %02d", m);
            ReconfigStats stats;
            std::string final_topo;
            runMorphMix(mixByName(name), hier, gen, sim,
                        baseSeed() + m, MorphConfig{}, &stats,
                        &final_topo);
            const std::uint64_t events = stats.reconfigurations();
            std::printf("  %-8s merges %3llu splits %3llu "
                        "asymmetric %3llu  final %s\n",
                        name,
                        static_cast<unsigned long long>(stats.merges),
                        static_cast<unsigned long long>(stats.splits),
                        static_cast<unsigned long long>(
                            stats.asymmetricOutcomes),
                        final_topo.c_str());
            total += events;
            asym += stats.asymmetricOutcomes;
            min_events = std::min(min_events, events);
            max_events = std::max(max_events, events);
        }
        std::printf("  events min %llu max %llu avg %.1f, "
                    "asymmetric outcomes %.0f%% (paper: 39%%)\n\n",
                    static_cast<unsigned long long>(min_events),
                    static_cast<unsigned long long>(max_events),
                    static_cast<double>(total) / 12.0,
                    total ? 100.0 * static_cast<double>(asym) /
                                static_cast<double>(total)
                          : 0.0);
    }

    std::printf("multithreaded applications:\n");
    total = asym = 0;
    min_events = ~0ULL;
    max_events = 0;
    {
        HierarchyParams hier = experimentHierarchy(16);
        hier.coherence = true;
        const GeneratorParams gen = generatorFor(hier);
        for (const auto &profile : parsecProfiles()) {
            MultithreadedWorkload workload(profile, 16, gen,
                                           baseSeed());
            MorphCacheSystem system(hier, MorphConfig{});
            Simulation simulation(system, workload, sim);
            simulation.run();
            const auto &stats = system.controller().stats();
            const std::uint64_t events = stats.reconfigurations();
            std::printf("  %-14s merges %3llu splits %3llu "
                        "asymmetric %3llu\n",
                        profile.name,
                        static_cast<unsigned long long>(stats.merges),
                        static_cast<unsigned long long>(stats.splits),
                        static_cast<unsigned long long>(
                            stats.asymmetricOutcomes));
            total += events;
            asym += stats.asymmetricOutcomes;
            min_events = std::min(min_events, events);
            max_events = std::max(max_events, events);
        }
        std::printf("  events min %llu max %llu avg %.1f, "
                    "asymmetric outcomes %.0f%% (paper: 54%%)\n",
                    static_cast<unsigned long long>(min_events),
                    static_cast<unsigned long long>(max_events),
                    static_cast<double>(total) / 12.0,
                    total ? 100.0 * static_cast<double>(asym) /
                                static_cast<double>(total)
                          : 0.0);
    }
    return 0;
}
