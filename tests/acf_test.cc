/**
 * @file
 * Unit tests for ACF estimation: hash functions, ACFVs (one or two
 * vectors of a bank), the bank against a per-vector reference, and
 * the oracle estimator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <utility>
#include <vector>

#include "acf/acfv.hh"
#include "acf/hash.hh"
#include "common/rng.hh"

namespace morphcache {
namespace {

TEST(TagHash, InRange)
{
    for (Addr tag = 0; tag < 10000; ++tag) {
        EXPECT_LT(hashTag(HashKind::Xor, tag, 128), 128u);
        EXPECT_LT(hashTag(HashKind::Modulo, tag, 128), 128u);
    }
}

TEST(TagHash, ModuloIsLowBits)
{
    EXPECT_EQ(hashTag(HashKind::Modulo, 0x1234, 256), 0x34u);
}

TEST(TagHash, XorSpreadsHighBits)
{
    // Tags differing only in high bits must map to different
    // buckets under XOR (they collide under modulo).
    const Addr a = 0x0000000012ULL;
    const Addr b = 0x0f00000012ULL;
    EXPECT_EQ(hashTag(HashKind::Modulo, a, 64),
              hashTag(HashKind::Modulo, b, 64));
    EXPECT_NE(hashTag(HashKind::Xor, a, 64),
              hashTag(HashKind::Xor, b, 64));
}

TEST(TagHash, Deterministic)
{
    for (Addr tag : {0ULL, 7ULL, 123456789ULL}) {
        EXPECT_EQ(hashTag(HashKind::Xor, tag, 128),
                  hashTag(HashKind::Xor, tag, 128));
    }
}

/** Common 1s of two vectors of a bank. */
std::uint32_t
commonOnes(const AcfvBank &bank, CoreId ca, SliceId sa, CoreId cb,
           SliceId sb)
{
    std::uint32_t count = 0;
    for (std::uint32_t w = 0; w < bank.numWords(); ++w)
        count += static_cast<std::uint32_t>(
            std::popcount(bank.word(ca, sa, w) & bank.word(cb, sb, w)));
    return count;
}

/** |ACFV| of one vector of a bank: its number of set bits. */
std::uint32_t
ones(const AcfvBank &bank, CoreId c, SliceId s)
{
    return commonOnes(bank, c, s, c, s);
}

TEST(Acfv, SetAndClear)
{
    AcfvBank bank(1, 1, 128);
    EXPECT_EQ(ones(bank, 0, 0), 0u);
    bank.set(0, 0, 42);
    EXPECT_EQ(ones(bank, 0, 0), 1u);
    bank.set(0, 0, 42); // idempotent
    EXPECT_EQ(ones(bank, 0, 0), 1u);
    bank.clearAllCores(0, 42);
    EXPECT_EQ(ones(bank, 0, 0), 0u);
}

TEST(Acfv, ResetAll)
{
    AcfvBank bank(1, 1, 64);
    for (Addr a = 0; a < 32; ++a)
        bank.set(0, 0, a * 977);
    EXPECT_GT(ones(bank, 0, 0), 0u);
    bank.resetAll();
    EXPECT_EQ(ones(bank, 0, 0), 0u);
}

TEST(Acfv, UtilizationFraction)
{
    AcfvBank bank(1, 1, 128, HashKind::Modulo);
    for (Addr a = 0; a < 64; ++a)
        bank.set(0, 0, a); // modulo: 64 distinct bits
    const SliceId slice = 0;
    EXPECT_DOUBLE_EQ(bank.utilization({&slice, 1}), 0.5);
}

TEST(Acfv, PopcountMatchesDistinctBuckets)
{
    AcfvBank bank(1, 1, 256, HashKind::Xor);
    std::set<std::uint32_t> buckets;
    for (Addr a = 0; a < 500; ++a) {
        bank.set(0, 0, a * 131);
        buckets.insert(hashTag(HashKind::Xor, a * 131, 256));
    }
    EXPECT_EQ(ones(bank, 0, 0), buckets.size());
}

TEST(Acfv, CommonOnesMeasuresOverlap)
{
    AcfvBank bank(1, 2, 128, HashKind::Modulo);
    for (Addr x = 0; x < 40; ++x)
        bank.set(0, 0, x);
    for (Addr x = 20; x < 60; ++x)
        bank.set(1, 0, x);
    EXPECT_EQ(commonOnes(bank, 0, 0, 1, 0), 20u);
}

TEST(Acfv, DisjointHaveNoCommonOnes)
{
    AcfvBank bank(1, 2, 128, HashKind::Modulo);
    for (Addr x = 0; x < 32; ++x)
        bank.set(0, 0, x);
    for (Addr x = 64; x < 96; ++x)
        bank.set(1, 0, x);
    EXPECT_EQ(commonOnes(bank, 0, 0, 1, 0), 0u);
}

/**
 * The bank's naive reference: one bit vector per (core, slice), each
 * indexed by the same tag hash, and the level's utilization and
 * overlap arithmetic over the OR of whole vectors.
 */
class ReferenceBank
{
  public:
    ReferenceBank(std::uint32_t slices, std::uint32_t cores,
                  std::uint32_t bits, HashKind kind)
        : cores_(cores), bits_(bits), kind_(kind),
          vectors_(std::size_t{slices} * cores,
                   std::vector<bool>(bits, false))
    {
    }

    void set(CoreId c, SliceId s, Addr unit)
    {
        vec(c, s)[hashTag(kind_, unit, bits_)] = true;
    }

    void clearAllCores(SliceId s, Addr unit)
    {
        for (std::uint32_t c = 0; c < cores_; ++c)
            vec(static_cast<CoreId>(c), s)[hashTag(kind_, unit, bits_)] =
                false;
    }

    void flip(CoreId c, SliceId s, std::uint32_t i)
    {
        vec(c, s)[i] = !vec(c, s)[i];
    }

    void resetAll()
    {
        for (auto &v : vectors_)
            std::fill(v.begin(), v.end(), false);
    }

    /** Word w of (c, s): bits 64w .. 64w + 63. */
    std::uint64_t word(CoreId c, SliceId s, std::uint32_t w) const
    {
        std::uint64_t out = 0;
        for (std::uint32_t b = 0; b < 64 && 64 * w + b < bits_; ++b)
            out |= std::uint64_t{vec(c, s)[64 * w + b]} << b;
        return out;
    }

    /** Bit i of the OR of every core's vector over `slices`. */
    bool unionBit(const std::vector<SliceId> &slices, std::uint32_t i) const
    {
        bool any = false;
        for (SliceId s : slices)
            for (std::uint32_t c = 0; c < cores_; ++c)
                any = any || vec(static_cast<CoreId>(c), s)[i];
        return any;
    }

    std::uint32_t sliceAcfPopcount(SliceId s) const
    {
        std::uint32_t count = 0;
        for (std::uint32_t i = 0; i < bits_; ++i)
            count += unionBit({s}, i);
        return count;
    }

    double utilization(const std::vector<SliceId> &slices) const
    {
        std::uint64_t ones = 0;
        for (SliceId s : slices)
            ones += sliceAcfPopcount(s);
        return static_cast<double>(ones) /
               (static_cast<double>(bits_) *
                static_cast<double>(slices.size()));
    }

    double overlap(const std::vector<SliceId> &a,
                   const std::vector<SliceId> &b) const
    {
        std::uint32_t common = 0, pa = 0, pb = 0;
        for (std::uint32_t i = 0; i < bits_; ++i) {
            const bool in_a = unionBit(a, i);
            const bool in_b = unionBit(b, i);
            common += in_a && in_b;
            pa += in_a;
            pb += in_b;
        }
        const std::uint32_t smaller = std::min(pa, pb);
        if (smaller == 0)
            return 0.0;
        const double bits = static_cast<double>(bits_) *
                            static_cast<double>(a.size());
        const double expected =
            static_cast<double>(pa) * static_cast<double>(pb) / bits;
        const double headroom = static_cast<double>(smaller) - expected;
        if (headroom <= 0.0)
            return 0.0;
        return std::max(0.0,
                        (static_cast<double>(common) - expected) / headroom);
    }

  private:
    std::vector<bool> &vec(CoreId c, SliceId s)
    {
        return vectors_[std::size_t{s} * cores_ + c];
    }
    const std::vector<bool> &vec(CoreId c, SliceId s) const
    {
        return vectors_[std::size_t{s} * cores_ + c];
    }

    std::uint32_t cores_;
    std::uint32_t bits_;
    HashKind kind_;
    std::vector<std::vector<bool>> vectors_;
};

/** A random nonempty set of slices, ascending. */
std::vector<SliceId>
randomSlices(Rng &rng, std::uint32_t slices)
{
    std::vector<SliceId> out;
    while (out.empty()) {
        for (std::uint32_t s = 0; s < slices; ++s)
            if (rng.below(4) == 0)
                out.push_back(static_cast<SliceId>(s));
    }
    return out;
}

TEST(AcfvBankLockstep, MatchesPerVectorReference)
{
    // Seeded sets, clears of every core's bit, flips and resets on a
    // 16-slice x 16-core bank, one- to eight-word vectors; after each
    // operation every word and the slice aggregates must agree.
    constexpr std::uint32_t kSlices = 16;
    constexpr std::uint32_t kCores = 16;
    const std::pair<std::uint32_t, HashKind> configs[] = {
        {128, HashKind::Fibonacci}, {32, HashKind::Xor},
        {512, HashKind::Modulo}};
    for (const auto &[bits, kind] : configs) {
        AcfvBank bank(kSlices, kCores, bits, kind);
        ReferenceBank ref(kSlices, kCores, bits, kind);
        Rng rng(bits * 31 + static_cast<std::uint64_t>(kind));
        ASSERT_EQ(bank.numWords(), (bits + 63) / 64);
        int shared = 0;
        for (int op = 0; op < 2000; ++op) {
            const auto c = static_cast<CoreId>(rng.below(kCores));
            const auto s = static_cast<SliceId>(rng.below(kSlices));
            // Few distinct units, so clears often hit set bits.
            const Addr unit = rng.below(4 * bits);
            const std::uint64_t draw = rng.below(100);
            if (draw < 60) {
                bank.set(c, s, unit);
                ref.set(c, s, unit);
            } else if (draw < 90) {
                bank.clearAllCores(s, unit);
                ref.clearAllCores(s, unit);
            } else if (draw < 99) {
                const auto i = static_cast<std::uint32_t>(rng.below(bits));
                bank.flip(c, s, i);
                ref.flip(c, s, i);
            } else {
                bank.resetAll();
                ref.resetAll();
            }
            // The touched slice every time, every slice now and then:
            // a write past a slice's words shows up in another's.
            const bool sweep = draw >= 99 || op % 250 == 249;
            for (std::uint32_t vs = 0; vs < kSlices; ++vs) {
                if (!sweep && vs != s)
                    continue;
                const auto slice = static_cast<SliceId>(vs);
                for (std::uint32_t vc = 0; vc < kCores; ++vc) {
                    const auto core = static_cast<CoreId>(vc);
                    for (std::uint32_t w = 0; w < bank.numWords(); ++w)
                        ASSERT_EQ(bank.word(core, slice, w),
                                  ref.word(core, slice, w))
                            << bits << " bits, op " << op << ", core "
                            << vc << ", slice " << vs << ", word " << w;
                }
                ASSERT_EQ(bank.sliceAcfPopcount(slice),
                          ref.sliceAcfPopcount(slice))
                    << bits << " bits, op " << op << ", slice " << vs;
            }
            if (op % 10 == 9) {
                const std::vector<SliceId> a = randomSlices(rng, kSlices);
                const std::vector<SliceId> b = randomSlices(rng, kSlices);
                ASSERT_EQ(bank.utilization(a), ref.utilization(a))
                    << bits << " bits, op " << op;
                ASSERT_EQ(bank.overlap(a, b), ref.overlap(a, b))
                    << bits << " bits, op " << op;
                shared += bank.overlap(a, b) > 0.0;
            }
        }
        EXPECT_GT(shared, 0) << bits << " bits";
    }
}

TEST(OracleAcf, TracksUniqueLines)
{
    OracleAcf oracle;
    oracle.set(1);
    oracle.set(2);
    oracle.set(1); // duplicate
    EXPECT_EQ(oracle.size(), 2u);
    oracle.clear(1);
    EXPECT_EQ(oracle.size(), 1u);
    oracle.resetAll();
    EXPECT_EQ(oracle.size(), 0u);
}

/**
 * The Figure 5 property: for contiguous footprints, |ACFV| tracks
 * the true footprint size. Larger vectors track it better, and by
 * 64-128 bits the correlation should be very high (paper: 0.94 at
 * 64 bits, 0.96 at 128).
 */
class AcfvCorrelation
    : public ::testing::TestWithParam<std::tuple<HashKind, int>>
{
};

TEST_P(AcfvCorrelation, TracksContiguousFootprint)
{
    const auto [kind, bits] = GetParam();
    AcfvBank bank(1, 1, static_cast<std::uint32_t>(bits), kind);
    const SliceId slice = 0;
    // Footprints of different sizes, like epochs of a benchmark
    // with temporal variation.
    double prev_est = -1.0;
    for (int size = 8; size <= bits; size *= 2) {
        bank.resetAll();
        for (Addr a = 0; a < static_cast<Addr>(size); ++a)
            bank.set(0, 0, a);
        const double est = bank.utilization({&slice, 1});
        EXPECT_GT(est, prev_est); // monotone in footprint
        prev_est = est;
    }
}

INSTANTIATE_TEST_SUITE_P(
    HashesAndSizes, AcfvCorrelation,
    ::testing::Combine(::testing::Values(HashKind::Xor,
                                         HashKind::Modulo),
                       ::testing::Values(32, 128, 512)));

} // namespace
} // namespace morphcache
