/**
 * @file
 * Figure 15 — MorphCache versus the ideal offline scheme that
 * runs each upcoming epoch under every candidate static topology
 * on copies of the live state and commits the winner.
 *
 * Paper: MorphCache achieves ~97% of the ideal scheme's
 * throughput, and for some mixes (e.g. Mix 10) beats it outright
 * thanks to asymmetric configurations no symmetric static shape
 * can express.
 */

#include "common.hh"

using namespace morphcache;
using namespace morphcache::bench;

int
main()
{
    const HierarchyParams hier = experimentHierarchy(16);
    const GeneratorParams gen = generatorFor(hier);
    const SimParams sim = defaultSim();
    const auto candidates = paperStaticTopologies();

    std::printf("Figure 15: throughput normalized to (16:1:1)\n");
    std::printf("%-8s %10s %10s %10s  %s\n", "mix", "baseline",
                "ideal", "morph", "morph/ideal");

    struct Row
    {
        double idealNorm, morphNorm, ratio;
    };
    const auto rows = forEachMix(12, [&](int m) {
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d", m);
        const MixSpec &mix = mixByName(name);

        const RunResult base = runStaticMix(
            mix, candidates[0], hier, gen, sim, baseSeed() + m);

        MixWorkload ideal_wl(mix, gen, baseSeed() + m);
        const IdealOfflineResult ideal = runIdealOffline(
            hier, candidates, ideal_wl, sim);

        const RunResult morph = runMorphMix(
            mix, hier, gen, sim, baseSeed() + m, MorphConfig{});

        return Row{ideal.run.avgThroughput / base.avgThroughput,
                   morph.avgThroughput / base.avgThroughput,
                   morph.avgThroughput / ideal.run.avgThroughput};
    });

    double ratio_sum = 0.0;
    for (int m = 1; m <= 12; ++m) {
        const Row &row = rows[m - 1];
        ratio_sum += row.ratio;
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d", m);
        std::printf("%-8s %10.3f %10.3f %10.3f  %10.3f\n", name, 1.0,
                    row.idealNorm, row.morphNorm, row.ratio);
    }
    std::printf("%-8s %32s  %10.3f\n", "AVG", "", ratio_sum / 12);
    std::printf("\npaper: MorphCache reaches ~0.97 of the ideal "
                "offline scheme\n");
    return 0;
}
