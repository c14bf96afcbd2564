/**
 * @file
 * Unit tests for the workload database and the synthetic reference
 * generators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <cmath>
#include <set>
#include <unordered_set>

#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

/**
 * Regression for a latent wrap: chunkLines <= stride holds by
 * construction, but if a future layout violates it the scatter
 * room must saturate to 1 (no scatter) rather than computing a
 * ~2^64 modulus that sprays addresses across the whole 64-bit
 * space. Every address stays inside the granule tiling either way.
 */
TEST(Generator, WorkingSetScatterSaturatesWhenChunksExceedStride)
{
    WorkingSet ws;
    ws.base = 0;
    ws.chunkCount = 4;
    ws.chunkLines = 8;
    ws.stride = 4; // violated invariant: chunkLines > stride
    for (std::uint64_t pos = 0; pos < ws.lines(); ++pos) {
        EXPECT_LT(ws.lineAt(pos), ws.spanLines() + ws.chunkLines)
            << "pos " << pos;
    }
}

TEST(Profiles, Table4Counts)
{
    EXPECT_EQ(specProfiles().size(), 29u);   // all of SPEC CPU 2006
    EXPECT_EQ(parsecProfiles().size(), 12u); // all of PARSEC
}

TEST(Profiles, SpotCheckTable4Values)
{
    const auto &hmmer = profileByName("hmmer");
    EXPECT_DOUBLE_EQ(hmmer.l2Acf, 0.31);
    EXPECT_DOUBLE_EQ(hmmer.l3Acf, 0.69);
    EXPECT_EQ(hmmer.cls, 1);

    const auto &dedup = profileByName("dedup");
    EXPECT_TRUE(dedup.multithreaded);
    EXPECT_DOUBLE_EQ(dedup.l3Acf, 0.74);
    EXPECT_DOUBLE_EQ(dedup.l3SigmaS, 0.12);
}

TEST(Profiles, ClassesMatchAcfThresholds)
{
    // The paper classifies by low/high L2 and L3 ACF around 0.5:
    // class = 2*(L2 high) + (L3 high) re-derived from the values.
    for (const auto &profile : specProfiles()) {
        const int expected = 2 * (profile.l2Acf >= 0.5) +
                             (profile.l3Acf >= 0.5);
        EXPECT_EQ(profile.cls, expected) << profile.name;
    }
}

TEST(Profiles, MixCensusMatchesClasses)
{
    // Table 5's (c0,c1,c2,c3) census must match the Table 4
    // classes of the member benchmarks.
    for (const auto &mix : mixSpecs()) {
        ASSERT_EQ(mix.benchmarks.size(), 16u) << mix.name;
        int census[4] = {0, 0, 0, 0};
        for (const char *name : mix.benchmarks) {
            const auto &profile = profileByName(name);
            ASSERT_GE(profile.cls, 0) << name;
            ++census[profile.cls];
        }
        for (int c = 0; c < 4; ++c)
            EXPECT_EQ(census[c], mix.census[c])
                << mix.name << " class " << c;
    }
}

TEST(Profiles, TwelveMixes)
{
    EXPECT_EQ(mixSpecs().size(), 12u);
    EXPECT_STREQ(mixByName("MIX 07").name, "MIX 07");
}

GeneratorParams
smallGen()
{
    GeneratorParams params;
    params.l2SliceLines = 512;
    params.l3SliceLines = 2048;
    return params;
}

TEST(Generator, Deterministic)
{
    CoreRefGenerator a(profileByName("gcc"), 0, smallGen(), 7);
    CoreRefGenerator b(profileByName("gcc"), 0, smallGen(), 7);
    for (int i = 0; i < 1000; ++i) {
        const MemAccess x = a.next();
        const MemAccess y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.type, y.type);
    }
}

TEST(Generator, FootprintScalesWithAcf)
{
    // A high-ACF benchmark must carry a bigger *reused* working set
    // than a low-ACF one (the streamer touches many unique lines,
    // but they are not part of its active footprint).
    auto working_set = [](const char *name) {
        CoreRefGenerator gen(profileByName(name), 0, smallGen(), 7);
        std::uint64_t sum = 0;
        for (int e = 0; e < 50; ++e) {
            gen.beginEpoch(static_cast<EpochId>(e));
            sum += gen.hotLines() + gen.midLines();
        }
        return sum;
    };
    EXPECT_GT(working_set("cactusADM"), // L2 ACF 0.74
              working_set("libquantum")); // L2 ACF 0.26
}

TEST(Generator, WorkingSetIsDispersedAcrossTags)
{
    // The hot set must spread over ~acf*128 tag granules so the
    // ACFV sees it (Section 2.1 mechanism).
    CoreRefGenerator gen(profileByName("gobmk"), 0, smallGen(), 7);
    gen.beginEpoch(3);
    const std::uint64_t granule = 512 * 16 / 128; // 64 lines
    std::unordered_set<Addr> granules;
    for (int i = 0; i < 40000; ++i)
        granules.insert((gen.next().addr >> 6) / granule);
    // gobmk: L2 ACF 0.73 -> ~93 hot granules, plus mid/stream.
    EXPECT_GT(granules.size(), 60u);
    EXPECT_LT(granules.size(), 400u);
}

TEST(Generator, HotSetSizedByProfile)
{
    GeneratorParams params = smallGen();
    params.lowPhaseEnterProb = 0.0; // isolate the sizing rule
    CoreRefGenerator gen(profileByName("gobmk"), 0, params, 7);
    // Average over epochs: the hot set follows the scaled demand
    // inversion of the benchmark's L2 ACF (0.73 for gobmk).
    double sum = 0.0;
    const int epochs = 200;
    for (int e = 0; e < epochs; ++e) {
        gen.beginEpoch(static_cast<EpochId>(e));
        sum += static_cast<double>(gen.hotLines());
    }
    const double expected =
        demandScale * -std::log(1.0 - 0.73) * 512;
    EXPECT_NEAR(sum / epochs, expected, expected * 0.15);
}

TEST(Generator, TemporalVariationFollowsSigma)
{
    // hmmer (sigma_t 0.19) must vary its hot set across epochs much
    // more than calculix (sigma_t 0.02).
    auto hot_stddev = [](const char *name) {
        GeneratorParams params = smallGen();
        params.lowPhaseEnterProb = 0.0; // isolate sigma_t
        CoreRefGenerator gen(profileByName(name), 0, params, 7);
        std::vector<double> sizes;
        for (int e = 0; e < 300; ++e) {
            gen.beginEpoch(static_cast<EpochId>(e));
            sizes.push_back(static_cast<double>(gen.hotLines()));
        }
        double mean = 0.0;
        for (double s : sizes)
            mean += s;
        mean /= static_cast<double>(sizes.size());
        double var = 0.0;
        for (double s : sizes)
            var += (s - mean) * (s - mean);
        return var / static_cast<double>(sizes.size());
    };
    EXPECT_GT(hot_stddev("hmmer"), 4.0 * hot_stddev("calculix"));
}

TEST(Generator, WritesRoughlyAtConfiguredFraction)
{
    CoreRefGenerator gen(profileByName("mcf"), 0, smallGen(), 7);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += gen.next().type == AccessType::Write;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
}

TEST(MixWorkload, DisjointAddressSpaces)
{
    MixWorkload mix(mixByName("MIX 01"), smallGen(), 7);
    EXPECT_EQ(mix.numCores(), 16u);
    EXPECT_FALSE(mix.sharedAddressSpace());
    std::set<Addr> seen[16];
    for (int i = 0; i < 2000; ++i) {
        for (CoreId c = 0; c < 16; ++c)
            seen[c].insert(mix.next(c).addr >> 6);
    }
    for (int a = 0; a < 16; ++a) {
        for (int b = a + 1; b < 16; ++b) {
            std::vector<Addr> overlap;
            std::set_intersection(seen[a].begin(), seen[a].end(),
                                  seen[b].begin(), seen[b].end(),
                                  std::back_inserter(overlap));
            EXPECT_TRUE(overlap.empty())
                << "cores " << a << " and " << b;
        }
    }
}

TEST(MixWorkload, CoreRunsItsAssignedBenchmark)
{
    const MixSpec &spec = mixByName("MIX 03");
    MixWorkload mix(spec, smallGen(), 7);
    for (CoreId c = 0; c < 16; ++c) {
        EXPECT_STREQ(mix.core(c).profile().name, spec.benchmarks[c]);
    }
}

TEST(MultithreadedWorkload, ThreadsShareData)
{
    MultithreadedWorkload app(profileByName("dedup"), 16, smallGen(),
                              7);
    EXPECT_TRUE(app.sharedAddressSpace());
    app.beginEpoch(1);
    std::set<Addr> t0, t1;
    for (int i = 0; i < 20000; ++i) {
        t0.insert(app.next(0).addr >> 6);
        t1.insert(app.next(1).addr >> 6);
    }
    std::vector<Addr> overlap;
    std::set_intersection(t0.begin(), t0.end(), t1.begin(), t1.end(),
                          std::back_inserter(overlap));
    // dedup has sharedFraction 0.5: substantial overlap expected.
    EXPECT_GT(overlap.size(), 100u);
}

TEST(MultithreadedWorkload, LowSharingAppOverlapsLess)
{
    auto overlap_count = [](const char *name) {
        MultithreadedWorkload app(profileByName(name), 16,
                                  smallGen(), 7);
        app.beginEpoch(1);
        std::set<Addr> t0, t1;
        for (int i = 0; i < 10000; ++i) {
            t0.insert(app.next(0).addr >> 6);
            t1.insert(app.next(1).addr >> 6);
        }
        std::vector<Addr> overlap;
        std::set_intersection(t0.begin(), t0.end(), t1.begin(),
                              t1.end(), std::back_inserter(overlap));
        return overlap.size();
    };
    EXPECT_GT(overlap_count("dedup"),        // sharedFraction 0.5
              2 * overlap_count("swaptions")); // 0.1
}

TEST(Workload, CloneReplaysIdentically)
{
    MixWorkload mix(mixByName("MIX 02"), smallGen(), 7);
    // Advance a bit first.
    for (int i = 0; i < 500; ++i)
        mix.next(3);
    const std::unique_ptr<Workload> copy = mix.clone();
    copy->beginEpoch(5);
    mix.beginEpoch(5);
    for (int i = 0; i < 1000; ++i) {
        for (CoreId c = 0; c < 16; ++c)
            EXPECT_EQ(mix.next(c).addr, copy->next(c).addr);
    }
}

} // namespace
} // namespace morphcache
