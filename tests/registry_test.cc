/**
 * @file
 * Tests for the simulator-wide stats registry: registration styles,
 * snapshot/delta semantics, JSON/CSV round-trips, and the
 * duplicate-name panic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "stats/registry.hh"

namespace morphcache {
namespace {

TEST(Registry, OwnedCounterRoundTrips)
{
    StatsRegistry registry;
    std::uint64_t &hits = registry.counter("l2.hits", "L2 hits");
    hits += 3;
    hits += 4;
    EXPECT_TRUE(registry.has("l2.hits"));
    EXPECT_EQ(registry.value("l2.hits"), 7.0);
}

TEST(Registry, OwnedCounterReferenceStaysStable)
{
    // The deque backing must keep slot addresses stable across
    // later registrations — components hold the reference forever.
    StatsRegistry registry;
    std::uint64_t &first = registry.counter("first");
    for (int i = 0; i < 200; ++i)
        registry.counter("c" + std::to_string(i));
    first = 42;
    EXPECT_EQ(registry.value("first"), 42.0);
}

TEST(Registry, BoundCounterSamplesLive)
{
    StatsRegistry registry;
    std::uint64_t backing = 0;
    registry.bindCounter("bound", [&backing]() { return backing; });
    EXPECT_EQ(registry.value("bound"), 0.0);
    backing = 11;
    EXPECT_EQ(registry.value("bound"), 11.0);
}

TEST(Registry, BoundScalarSamplesLive)
{
    StatsRegistry registry;
    double gauge = 0.5;
    registry.bindScalar("gauge", [&gauge]() { return gauge; });
    gauge = 0.75;
    EXPECT_EQ(registry.value("gauge"), 0.75);
}

TEST(Registry, DuplicateNamePanics)
{
    StatsRegistry registry;
    registry.counter("dup");
    EXPECT_DEATH(registry.counter("dup"), "dup");
}

TEST(Registry, DuplicateAcrossKindsPanics)
{
    StatsRegistry registry;
    registry.bindScalar("name", []() { return 0.0; });
    EXPECT_DEATH(registry.counter("name"), "name");
}

TEST(Registry, UnknownNamePanics)
{
    StatsRegistry registry;
    EXPECT_DEATH(registry.value("missing"), "missing");
}

TEST(Registry, SnapshotDeltasForCountersSamplesForScalars)
{
    StatsRegistry registry;
    std::uint64_t &count = registry.counter("count");
    double gauge = 1.0;
    registry.bindScalar("gauge", [&gauge]() { return gauge; });

    count = 10;
    registry.snapshotEpoch(0);
    count = 25;
    gauge = 2.0;
    registry.snapshotEpoch(1);

    ASSERT_EQ(registry.numSnapshots(), 2u);
    // First epoch: counters report their full value (delta from 0).
    const auto row0 = registry.epochRow(0);
    const auto row1 = registry.epochRow(1);
    const auto names = registry.names();
    ASSERT_EQ(names.size(), 2u);
    ASSERT_EQ(names[0], "count");
    EXPECT_EQ(row0[0], 10.0);
    EXPECT_EQ(row0[1], 1.0);
    EXPECT_EQ(row1[0], 15.0); // delta, not cumulative
    EXPECT_EQ(row1[1], 2.0);  // sample, not delta
    EXPECT_EQ(registry.epochId(1), 1u);
}

TEST(Registry, HistogramRegistersAndDumps)
{
    StatsRegistry registry;
    Histogram &h = registry.histogram("lat", 0.0, 10.0, 5);
    h.add(1.0);
    h.add(9.0);
    EXPECT_TRUE(registry.has("lat"));
    const std::string json = registry.jsonString();
    EXPECT_NE(json.find("\"lat\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Registry, JsonContainsMetaStatsAndEpochs)
{
    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = 99;
    meta.configHash = "abc123";
    registry.setMeta(meta);
    std::uint64_t &c = registry.counter("sim.refs");
    c = 5;
    registry.snapshotEpoch(0);

    const std::string json = registry.jsonString();
    EXPECT_NE(json.find("\"seed\": 99"), std::string::npos);
    EXPECT_NE(json.find("\"config\": \"abc123\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim.refs\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"epochs\""), std::string::npos);
}

TEST(Registry, CsvStampedAndShaped)
{
    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = 7;
    meta.configHash = "ff00";
    registry.setMeta(meta);
    std::uint64_t &a = registry.counter("a");
    a = 2;
    registry.snapshotEpoch(0);
    a = 5;
    registry.snapshotEpoch(1);

    const std::string csv = registry.csvString();
    EXPECT_EQ(csv, "# seed=7 config=ff00\n"
                   "epoch,a\n"
                   "0,2\n"
                   "1,3\n");
}

TEST(Registry, SeedAbove2To63PrintsExactly)
{
    // A campaign cell's sweepCellSeed uses all 64 bits; its stats
    // files must name it exactly, or they cannot be traced to it.
    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = 13679457532755275413ULL;
    meta.configHash = "ff00";
    registry.setMeta(meta);

    EXPECT_NE(registry.jsonString().find(
                  "{\"seed\": 13679457532755275413, "),
              std::string::npos);
    EXPECT_EQ(registry.csvString().rfind(
                  "# seed=13679457532755275413 config=ff00\n", 0),
              0u);
}

TEST(Registry, CsvWithoutSnapshotsEmitsFinalRow)
{
    StatsRegistry registry;
    std::uint64_t &a = registry.counter("a");
    a = 9;
    const std::string csv = registry.csvString();
    EXPECT_NE(csv.find("final,9"), std::string::npos);
}

TEST(Registry, FileRoundTrip)
{
    StatsRegistry registry;
    std::uint64_t &a = registry.counter("a");
    a = 4;
    registry.snapshotEpoch(0);

    const std::string base = ::testing::TempDir();
    const std::string json_path = base + "registry_test.json";
    const std::string csv_path = base + "registry_test.csv";
    registry.writeJson(json_path);
    registry.writeCsv(csv_path);

    auto slurp = [](const std::string &path) {
        std::FILE *f = std::fopen(path.c_str(), "r");
        EXPECT_NE(f, nullptr);
        char buf[4096] = {};
        const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
        std::fclose(f);
        std::remove(path.c_str());
        return std::string(buf, n);
    };
    EXPECT_EQ(slurp(json_path), registry.jsonString());
    EXPECT_EQ(slurp(csv_path), registry.csvString());
}

TEST(Registry, ConfigHashIsStableAndSensitive)
{
    const std::string h1 = configHashHex("cores=16 refs=24000");
    const std::string h2 = configHashHex("cores=16 refs=24000");
    const std::string h3 = configHashHex("cores=16 refs=24001");
    EXPECT_EQ(h1, h2);
    EXPECT_NE(h1, h3);
    EXPECT_FALSE(h1.empty());
}

} // namespace
} // namespace morphcache
