/**
 * @file
 * Unit tests for the common utilities (rng, bitops, durability,
 * numeric flag parsing).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common/bitops.hh"
#include "common/numparse.hh"
#include "common/rng.hh"
#include "common/serial.hh"

namespace morphcache {
namespace {

TEST(Bitops, PowerOfTwoDetection)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(~0ULL), 63u);
}

TEST(Bitops, BitsExtraction)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffULL);
    EXPECT_EQ(bits(0xabcd, 0, 4), 0xdULL);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
    EXPECT_EQ(divCeil(1, 64), 1u);
}

TEST(Bitops, SatSubSaturatesAtZero)
{
    EXPECT_EQ(satSub(10u, 3u), 7u);
    EXPECT_EQ(satSub(3u, 10u), 0u);
    EXPECT_EQ(satSub(0u, 0u), 0u);
    EXPECT_EQ(satSub(~0ULL, 1ULL), ~0ULL - 1);
    EXPECT_EQ(satSub(std::uint64_t{0}, ~0ULL), 0ULL);
    // The second operand is a non-deduced context, so a narrower
    // literal follows the first operand's type instead of
    // poisoning deduction.
    EXPECT_EQ(satSub(std::uint64_t{5}, 1u), 4ULL);
}

TEST(Bitops, SatDecStopsAtZero)
{
    std::uint32_t v = 2;
    EXPECT_EQ(satDec(v), 1u);
    EXPECT_EQ(satDec(v), 0u);
    EXPECT_EQ(satDec(v), 0u); // saturates instead of wrapping
    EXPECT_EQ(v, 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Serial, FsyncGateMatchesEnvironment)
{
    const char *env = std::getenv("MC_NO_FSYNC");
    const bool disabled =
        env != nullptr && *env != '\0' && *env != '0';
    EXPECT_EQ(fsyncEnabled(), !disabled);
}

/**
 * Regression: atomicWriteFile must actually drive the fsync path —
 * file before the rename, containing directory after — unless the
 * MC_NO_FSYNC escape hatch suppressed it. The process-wide counter
 * is the witness; a refactor that silently drops the fsyncs (the
 * classic "rename is enough" mistake) fails here.
 */
TEST(Serial, AtomicWriteFsyncsFileAndDirectoryUnlessDisabled)
{
    const std::string path =
        std::string(::testing::TempDir()) + "fsync_probe.bin";
    const std::uint64_t before = fsyncCount();
    const char payload[] = "durable";
    atomicWriteFile(path, payload, sizeof(payload));
    const std::uint64_t after = fsyncCount();
    if (fsyncEnabled()) {
        EXPECT_GE(after - before, 2u)
            << "expected a file fsync and a directory fsync";
    } else {
        EXPECT_EQ(after, before)
            << "MC_NO_FSYNC must suppress every fsync";
    }
    // The write itself must land either way.
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    EXPECT_EQ(bytes.size(), sizeof(payload));
    std::remove(path.c_str());
}

TEST(NumParse, AcceptedAndRejectedStrings)
{
    EXPECT_EQ(parseNumber<std::uint32_t>("0"), 0u);
    EXPECT_EQ(parseNumber<std::uint32_t>("42"), 42u);
    EXPECT_EQ(parseNumber<std::uint32_t>("007"), 7u);
    EXPECT_EQ(parseNumber<std::uint32_t>("4294967295"), 4294967295u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              ~std::uint64_t{0});
    EXPECT_EQ(parseNumber<long long>("9223372036854775807"),
              9223372036854775807LL);
    EXPECT_EQ(parseNumber<double>("0.5"), 0.5);
    EXPECT_EQ(parseNumber<double>("30"), 30.0);
    EXPECT_EQ(parseNumber<double>("2e5"), 2e5);
    EXPECT_EQ(parseNumber<double>(".25"), 0.25);

    // Empty, signed, padded, trailing characters, other bases, and
    // values too wide for the field.
    for (const char *bad :
         {"", "-1", "+1", " 1", "1 ", "3x", "2e5", "1.5", "0x10", "abc",
          "4294967296"})
        EXPECT_FALSE(parseNumber<std::uint32_t>(bad)) << bad;
    EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseNumber<long long>("-1"));
    EXPECT_FALSE(parseNumber<long long>("9223372036854775808"));
    for (const char *bad :
         {"", "-0.5", "+0.5", " 1", "0.5s", "0.5,0.2", "nan", "inf",
          "infinity", "1e999"})
        EXPECT_FALSE(parseNumber<double>(bad)) << bad;
}

} // namespace
} // namespace morphcache
