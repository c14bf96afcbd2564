/**
 * @file
 * Ablations of the reproduction's own modelling choices (the
 * DESIGN.md deviations), so every substitution's effect is
 * measurable rather than asserted:
 *
 *  1. Static-latency model: remote-hit premium charged to static
 *     topologies (this repo's default) versus the paper's flat
 *     10/30-cycle idealization.
 *  2. Replacement policy: tree pseudo-LRU (default) versus exact
 *     timestamp LRU across merged ways.
 *  3. Segmented-bus accounting: split-transaction occupancy
 *     (default) versus serialized whole transactions.
 *  4. L3 MSAT calibration sensitivity.
 */

#include "common.hh"

using namespace morphcache;
using namespace morphcache::bench;

namespace {

double
staticAvg(const HierarchyParams &hier, const Topology &topo,
          const SimParams &sim, const GeneratorParams &gen,
          RemoteCost remote)
{
    double sum = 0.0;
    const int mixes[] = {1, 5, 8, 9};
    for (int m : mixes) {
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d", m);
        MixWorkload workload(mixByName(name), gen, baseSeed() + m);
        StaticTopologySystem system(hier, topo, remote);
        Simulation simulation(system, workload, sim);
        sum += simulation.run().avgThroughput;
    }
    return sum / std::size(mixes);
}

double
morphAvg(const HierarchyParams &hier, const SimParams &sim,
         const GeneratorParams &gen, const MorphConfig &config)
{
    double sum = 0.0;
    const int mixes[] = {1, 5, 8, 9};
    for (int m : mixes) {
        char name[16];
        std::snprintf(name, sizeof(name), "MIX %02d", m);
        sum += runMorphMix(mixByName(name), hier, gen, sim,
                           baseSeed() + m, config)
                   .avgThroughput;
    }
    return sum / std::size(mixes);
}

} // namespace

int
main()
{
    const HierarchyParams hier = experimentHierarchy(16);
    const GeneratorParams gen = generatorFor(hier);
    const SimParams sim = defaultSim();

    std::printf("Model ablations (avg throughput over MIX 01/05/08/"
                "09)\n\n");

    std::printf("1) static-topology latency model:\n");
    for (auto [x, y, z] : {std::tuple{16, 1, 1}, {4, 4, 1}}) {
        const Topology topo = Topology::symmetric(16, x, y, z);
        std::printf("   %-9s charged-remote %7.3f   paper-flat "
                    "%7.3f\n",
                    topo.name().c_str(),
                    staticAvg(hier, topo, sim, gen, RemoteCost::Premium),
                    staticAvg(hier, topo, sim, gen, RemoteCost::None));
    }

    std::printf("\n2) replacement policy under MorphCache:\n");
    {
        const double plru = morphAvg(hier, sim, gen, MorphConfig{});
        HierarchyParams lru = hier;
        lru.l2.policy = ReplPolicy::LRU;
        lru.l3.policy = ReplPolicy::LRU;
        const double exact = morphAvg(lru, sim, gen, MorphConfig{});
        std::printf("   tree-PLRU (default) %7.3f   exact LRU "
                    "%7.3f\n",
                    plru, exact);
    }

    std::printf("\n3) segmented-bus occupancy accounting:\n");
    {
        const double split = morphAvg(hier, sim, gen, MorphConfig{});
        HierarchyParams serial = hier;
        serial.l2.busOccupancyCycles = busTxnCpuCycles;
        serial.l3.busOccupancyCycles = busTxnCpuCycles;
        const double whole = morphAvg(serial, sim, gen,
                                      MorphConfig{});
        std::printf("   split-transaction %7.3f   serialized "
                    "%7.3f\n",
                    split, whole);
    }

    std::printf("\n4) L3 MSAT sensitivity (high, low):\n");
    for (auto [h, l] : {std::tuple{0.35, 0.12}, {0.26, 0.20},
                        {0.20, 0.16}}) {
        MorphConfig config;
        config.msatL3 = MsatConfig{h, l};
        std::printf("   (%.2f, %.2f) -> %7.3f\n", h, l,
                    morphAvg(hier, sim, gen, config));
    }
    return 0;
}
