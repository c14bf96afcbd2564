/**
 * @file
 * Tests for the in-process runner pieces: parallelMap (index order,
 * every cell runs, a throwing cell fails only itself, lowest-index
 * failure rethrown, the jobs == 0 rule), cell seed derivation, and
 * buildRun: its typed rejection of zero cores before the workload is
 * built, of malformed mix and static specs and of unknown mix and
 * benchmark names, and the system each scheme name builds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "runner/run_factory.hh"
#include "runner/sweep.hh"

namespace morphcache {
namespace {

TEST(ParallelMap, MoreCellsThanWorkersKeepIndexOrder)
{
    const auto values = parallelMap(64, 3, [](std::size_t i) {
        // Uneven cell durations shuffle *completion* order; results
        // must still come back in index order.
        if (i % 7 == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        return i * i;
    });
    ASSERT_EQ(values.size(), 64u);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i * i);
}

TEST(ParallelMap, RunsEveryCell)
{
    std::atomic<int> count{0};
    const auto values = parallelMap(100, 4, [&count](std::size_t i) {
        ++count;
        return i;
    });
    EXPECT_EQ(count.load(), 100);
    ASSERT_EQ(values.size(), 100u);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(values[i], i);
}

TEST(ParallelMap, ThrowingCellFailsOnlyItself)
{
    // Each cell records its own slot; a throwing cell must not stop
    // any other cell from running to completion.
    std::vector<std::atomic<int>> done(16);
    EXPECT_THROW(parallelMap(16, 4,
                             [&done](std::size_t i) {
                                 if (i == 5) {
                                     throw std::runtime_error(
                                         "cell five exploded");
                                 }
                                 ++done[i];
                                 return i;
                             }),
                 std::runtime_error);
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i].load(), i == 5 ? 0 : 1) << "cell " << i;
}

TEST(ParallelMap, RethrowsTheLowestIndexFailure)
{
    EXPECT_THROW(parallelMap(4, 2,
                             [](std::size_t i) {
                                 if (i == 2)
                                     throw std::runtime_error("boom");
                                 return i;
                             }),
                 std::runtime_error);
    try {
        parallelMap(16, 4, [](std::size_t i) {
            if (i == 5 || i == 11)
                throw std::runtime_error("cell " + std::to_string(i));
            return i;
        });
        FAIL() << "a failed cell must be rethrown";
    } catch (const std::runtime_error &err) {
        EXPECT_EQ(std::string(err.what()), "cell 5");
    }
}

TEST(ParallelMap, ZeroJobsUseTheHardwareThreads)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    const auto values = parallelMap(32, 0, [&](std::size_t i) {
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        return i;
    });
    EXPECT_EQ(values.size(), 32u);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(),
              std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_TRUE(parallelMap(0, 0, [](std::size_t i) { return i; })
                    .empty());
}

TEST(SweepSeed, DeterministicAndWellSpread)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const std::uint64_t seed = sweepCellSeed(42, i);
        EXPECT_EQ(seed, sweepCellSeed(42, i));
        seeds.insert(seed);
    }
    // SplitMix64 over base ^ index never collides on a small range.
    EXPECT_EQ(seeds.size(), 256u);
    EXPECT_NE(sweepCellSeed(42, 0), sweepCellSeed(43, 0));
}

TEST(RunFactory, ZeroCoresIsAConfigErrorBeforeTheWorkloadIsBuilt)
{
    RunSpec spec;
    spec.cores = 0;
    EXPECT_THROW(buildRun(spec), ConfigError);
}

TEST(RunFactory, MalformedMixOrStaticSpecIsAConfigError)
{
    // Each of these once ran some other spelling's simulation under
    // its own config hash, or failed naming the wrong mix.
    for (const char *workload : {"mix:1x", "mix:abc", "mix:", "mix:-1",
                                 "mix: 1", "mix:1.0"}) {
        RunSpec spec;
        spec.cores = 4;
        spec.workload = workload;
        EXPECT_THROW(buildRun(spec), ConfigError) << workload;
    }
    for (const char *scheme :
         {"static:2:2:1junk", "static:2:2:1:9", "static:2:2",
          "static:2::1", "static:-2:2:1", "static:2:2:x", "static:",
          "static:2:2:2", "static:0:4:1", "static:2147483650:2:1"}) {
        RunSpec spec;
        spec.cores = 4;
        spec.scheme = scheme;
        EXPECT_THROW(buildRun(spec), ConfigError) << scheme;
    }
}

TEST(RunFactory, UnknownMixOrBenchmarkIsAConfigError)
{
    // A well-formed spec naming no Table 4 or Table 5 entry must be
    // a typed error, not an exit: buildRun also runs inside the
    // campaign executor and mc_ckpt --verify.
    for (const char *workload : {"mix:13", "mix:0", "parsec:bogus"}) {
        RunSpec spec;
        spec.cores = 4;
        spec.workload = workload;
        EXPECT_THROW(buildRun(spec), ConfigError) << workload;
    }
}

TEST(RunFactory, DsrAbove32CoresIsAConfigError)
{
    // DSR's 64-set leader period holds two leader sets for at most
    // 32 slices; a wider spec must fail typed, not abort.
    RunSpec spec;
    spec.workload = "mix:1";
    spec.scheme = "dsr";
    spec.cores = 32;
    EXPECT_NO_THROW(buildRun(spec));
    spec.cores = 64;
    try {
        buildRun(spec);
        FAIL() << "64-core DSR built";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("32 cores"),
                  std::string::npos)
            << err.what();
    }
}

TEST(RunFactory, WellFormedSpecsBuildTheNamedSystem)
{
    const std::pair<const char *, const char *> schemes[] = {
        {"static:2:2:1", "(2:2:1)"}, {"static:4:1:1", "(4:1:1)"},
        {"morph", "MorphCache"},     {"pipp", "PIPP"},
        {"ucp", "UCP"},              {"dsr", "DSR"}};
    for (const auto &[scheme, name] : schemes) {
        RunSpec spec;
        spec.cores = 4;
        spec.workload = "mix:12";
        spec.scheme = scheme;
        EXPECT_EQ(buildRun(spec).system->name(), name) << scheme;
    }
}

} // namespace
} // namespace morphcache
