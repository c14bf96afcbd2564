/**
 * @file
 * Figure 5 — ACFV fidelity versus vector length.
 *
 * Runs hmmer on a single core with a 1 MB L2 slice (the paper's
 * setup), measures per-epoch |ACFV|/bits for vector lengths 2..512
 * under both hash families, and correlates each series against the
 * oracle footprint (exact per-epoch unique-line tracking). The
 * paper reports ~0.94 at 64 bits and ~0.96 at 128 bits.
 */

#include "common.hh"

#include "stats/stats.hh"

using namespace morphcache;
using namespace morphcache::bench;

int
main()
{
    // Single-core hierarchy with the paper's 1 MB slice at L2.
    HierarchyParams hier = HierarchyParams::defaultParams(1);
    hier.l2.sliceGeom = CacheGeometry{1024 * 1024, 8, 64};
    hier.l3.sliceGeom = CacheGeometry{4 * 1024 * 1024, 16, 64};
    hier.l2.trackOracle = true;

    const SimParams sim = defaultSim();
    const std::uint32_t epochs = 40;

    std::printf("Figure 5: correlation of |ACFV| with the oracle "
                "ACF estimator\n");
    std::printf("hmmer, 1 MB L2 slice, %u epochs of %llu refs\n\n",
                epochs,
                static_cast<unsigned long long>(
                    sim.refsPerEpochPerCore));
    std::printf("%-8s %12s %12s %12s\n", "bits", "XOR", "modulo",
                "fibonacci");

    for (std::uint32_t bits : {2u, 8u, 32u, 64u, 128u, 512u}) {
        double corr[3] = {0.0, 0.0, 0.0};
        int k = 0;
        for (HashKind kind : {HashKind::Xor, HashKind::Modulo,
                              HashKind::Fibonacci}) {
            HierarchyParams params = hier;
            params.l2.acfvBits = bits;
            params.l2.acfvHash = kind;
            Hierarchy hierarchy(params);

            GeneratorParams gen = generatorFor(params);
            SoloWorkload workload(profileByName("hmmer"), gen,
                                  baseSeed());

            std::vector<double> cycles(1, 0.0), instrs(1, 0.0);
            std::vector<double> estimated, oracle;
            const SliceId own = 0;
            for (std::uint32_t e = 0; e < epochs; ++e) {
                workload.beginEpoch(e);
                runEpochAccesses(hierarchy, workload,
                                 sim.refsPerEpochPerCore, cycles,
                                 instrs);
                estimated.push_back(
                    hierarchy.l2().acfvs().utilization({&own, 1}));
                oracle.push_back(static_cast<double>(
                    hierarchy.l2().oracleAcfSize(0, 0)));
                hierarchy.resetFootprints();
            }
            corr[k++] = pearsonCorrelation(estimated, oracle);
        }
        std::printf("%-8u %12.3f %12.3f %12.3f\n", bits, corr[0],
                    corr[1], corr[2]);
    }
    std::printf("\npaper (XOR): 0.94 at 64 bits, 0.96 at 128 bits; "
                "small vectors degrade, the families converge\n"
                "(fibonacci is this repo's operating default: same "
                "fidelity, plus base decorrelation for the sharing "
                "test)\n");
    return 0;
}
