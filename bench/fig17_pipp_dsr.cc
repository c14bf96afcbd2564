/**
 * @file
 * Figure 17 — MorphCache versus PIPP [28] and DSR [18], both
 * extended to the L2 and L3 levels, on the twelve mixes,
 * normalized to the (16:1:1) baseline.
 *
 * Paper: MorphCache beats PIPP by 6.6% and DSR by 5.7% on average;
 * MIX 04 and MIX 08 (little ACF variation among members) are the
 * two mixes where the margin thins.
 */

#include "common.hh"

#include "baselines/ucp.hh"

using namespace morphcache;
using namespace morphcache::bench;

int
main()
{
    const HierarchyParams hier = experimentHierarchy(16);
    const GeneratorParams gen = generatorFor(hier);
    const SimParams sim = defaultSim();
    const Topology baseline_topo = Topology::symmetric(16, 16, 1, 1);

    std::printf("Figure 17: throughput normalized to (16:1:1)\n");
    printMixHeader();

    struct Row
    {
        double pipp, dsr, ucp, morph;
    };
    const auto rows = forEachMix(12, [&](int m) {
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d", m);
        const MixSpec &mix = mixByName(name);

        const RunResult base = runStaticMix(
            mix, baseline_topo, hier, gen, sim, baseSeed() + m);

        auto normalized = [&](MemorySystem &system) {
            MixWorkload workload(mix, gen, baseSeed() + m);
            Simulation simulation(system, workload, sim);
            return simulation.run().avgThroughput /
                   base.avgThroughput;
        };

        Row row{};
        row.pipp = normalized(*makePippSystem(hier));
        row.dsr = normalized(*makeDsrSystem(hier));
        // UCP [20] at both levels: exact way partitioning, the
        // related-work contrast to PIPP's pseudo-partitioning.
        row.ucp = normalized(*makeUcpSystem(hier));
        const RunResult morph = runMorphMix(
            mix, hier, gen, sim, baseSeed() + m, MorphConfig{});
        row.morph = morph.avgThroughput / base.avgThroughput;
        return row;
    });

    std::vector<double> pipp_norm, dsr_norm, ucp_norm, morph_norm;
    for (const Row &row : rows) {
        pipp_norm.push_back(row.pipp);
        dsr_norm.push_back(row.dsr);
        ucp_norm.push_back(row.ucp);
        morph_norm.push_back(row.morph);
    }
    printSeries("PIPP", pipp_norm);
    printSeries("DSR", dsr_norm);
    printSeries("UCP", ucp_norm);
    printSeries("MorphCache", morph_norm);
    std::printf("\npaper: morph beats PIPP by 6.6%% and DSR by 5.7%% "
                "on average; in this model PIPP's 16-core scaling "
                "pathology (which the paper highlights) is far more "
                "pronounced\n");
    return 0;
}
