/**
 * @file
 * Benchmark characterization database (paper Table 4).
 *
 * Real SPEC CPU 2006 / PARSEC binaries are not available offline,
 * so the workload generators are *calibrated to the paper's own
 * characterization*: Table 4 gives, per benchmark, the average
 * active cache footprint (ACF, as a fraction of a 256 KB L2 /
 * 1 MB L3 slice), its temporal standard deviation, and — for the
 * multithreaded PARSEC apps — the spatial standard deviation
 * across threads. Those statistics are exactly the inputs
 * MorphCache's reconfiguration logic keys on, so generators that
 * reproduce them exercise the same decision space the paper
 * evaluated.
 */

#ifndef MORPHCACHE_WORKLOAD_PROFILES_HH
#define MORPHCACHE_WORKLOAD_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

namespace morphcache {

/** One benchmark row of Table 4. */
struct BenchmarkProfile
{
    /** Canonical benchmark name. */
    const char *name = "";
    /** Average L2-slice ACF fraction. */
    double l2Acf = 0.5;
    /** Temporal std-dev of the L2 ACF. */
    double l2SigmaT = 0.1;
    /** Average L3-slice ACF fraction. */
    double l3Acf = 0.5;
    /** Temporal std-dev of the L3 ACF. */
    double l3SigmaT = 0.1;
    /**
     * Paper class (0..3): high/low L2 ACF x high/low L3 ACF.
     * -1 for PARSEC entries (unclassified in the paper).
     */
    int cls = -1;
    /** Multithreaded (PARSEC) benchmark. */
    bool multithreaded = false;
    /** Spatial std-dev across threads (PARSEC only). */
    double l2SigmaS = 0.0;
    double l3SigmaS = 0.0;
    /**
     * Fraction of references directed at the address-space-shared
     * region (PARSEC only). Not a Table 4 column; set from the
     * paper's qualitative discussion (Figure 2(b) / Section 5.2:
     * dedup, freqmine, canneal, facesim, ferret and x264 benefit
     * most from shared topologies).
     */
    double sharedFraction = 0.0;
};

/** All 31 SPEC CPU 2006 rows of Table 4. */
const std::vector<BenchmarkProfile> &specProfiles();

/** All 12 PARSEC rows of Table 4. */
const std::vector<BenchmarkProfile> &parsecProfiles();

/**
 * Find a profile by name anywhere in the database; throws
 * ConfigError if absent.
 */
const BenchmarkProfile &profileByName(const std::string &name);

/** One multiprogrammed workload mix (Table 5). */
struct MixSpec
{
    const char *name = "";
    /** Class census (class0, class1, class2, class3). */
    int census[4] = {0, 0, 0, 0};
    /** The 16 member benchmarks in core order. */
    std::vector<const char *> benchmarks;
};

/** The 12 SPEC mixes of Table 5. */
const std::vector<MixSpec> &mixSpecs();

/** Find a mix by name ("MIX 01".."MIX 12"); throws ConfigError if absent. */
const MixSpec &mixByName(const std::string &name);

} // namespace morphcache

#endif // MORPHCACHE_WORKLOAD_PROFILES_HH
