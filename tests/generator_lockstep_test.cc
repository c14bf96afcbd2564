/**
 * @file
 * The workloads' reference streams against the plain-way reference
 * in tests/generator_reference.hh.
 *
 *  - Every SPEC profile solo, every Table 5 mix at 16 cores and every
 *    PARSEC application at 16 threads, at seeds 42 and 7 with
 *    fast-scale parameters: every reference (core, address, read or
 *    write) must agree, and so must the checkpoint bytes after every
 *    epoch. Halfway through the middle epoch, the real workload is
 *    saved and restored into a fresh one, still at its first epoch,
 *    and the run goes on in lockstep, so everything the stream
 *    depends on must come back from the checkpoint or be rebuilt by
 *    loadState (the next beginEpoch is half an epoch away).
 *
 *  - The same on a seeded sweep of GeneratorParams edges: recency
 *    share 0 and 1, hot share 0 and 1, one class's stream share 0
 *    and 1, and the low-phase probabilities 0 and 1.
 *
 *  - The PARSEC runs must include an epoch that starts with a
 *    thread's shared mid cursor past the shared mid set: nothing
 *    wraps the cursor when the set shrinks, and the lockstep pins
 *    that behaviour until a declared model change mends it.
 *
 *  - The integer thresholds at their boundaries (RngThreshold): a
 *    random stream hits a given boundary draw with probability
 *    2^-53, so only these can catch an off-by-one. For probabilities
 *    from -0 and the smallest subnormal to 1.5, infinity and NaN,
 *    `k < chanceThreshold(p)` must equal `k * 2^-53 < p` at k = 0,
 *    T - 1, T, T + 1 and 2^53 - 1; and for every stream share the
 *    generator uses, the hot/mid cutoff's two boundary draws must
 *    fall on opposite sides of the floating-point working draw.
 */

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/serial.hh"
#include "generator_reference.hh"
#include "sim/config.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

constexpr std::uint64_t kSeeds[] = {42, 7};
constexpr int kEpochs = 12;

GeneratorParams
fastParams()
{
    return generatorFor(fastScaleHierarchy(16));
}

template <class T>
std::vector<std::uint8_t>
checkpointOf(const T &object)
{
    CkptWriter w;
    object.saveState(w);
    return w.buffer();
}

/**
 * Drive the workload `make(seed)` builds and `ref` side by side for
 * `epochs` epochs of `refs` references per core, round robin as the
 * simulator issues them. Every access and, after every epoch, the
 * checkpoint bytes must agree; halfway through epoch epochs / 2 the
 * real workload is restored into a fresh `make(seed)`. Returns the
 * number of epochs `starts_out_of_range(ref)` reports on.
 */
template <class Ref>
int
lockstep(const std::string &what,
         const std::function<std::unique_ptr<Workload>(std::uint64_t)>
             &make,
         std::uint64_t seed, Ref &ref, int epochs, std::uint32_t refs,
         const std::function<bool(const Ref &)> &starts_out_of_range =
             nullptr)
{
    std::unique_ptr<Workload> real = make(seed);
    const std::uint32_t cores = real->numCores();
    int flagged = 0;
    for (int e = 0; e < epochs; ++e) {
        const auto epoch = static_cast<EpochId>(e);
        real->beginEpoch(epoch);
        ref.beginEpoch(epoch);
        if (starts_out_of_range && starts_out_of_range(ref))
            ++flagged;
        for (std::uint32_t i = 0; i < refs; ++i) {
            if (e == epochs / 2 && i == refs / 2) {
                const std::vector<std::uint8_t> bytes = checkpointOf(*real);
                real = make(seed);
                CkptReader in(what, bytes);
                real->loadState(in);
            }
            for (std::uint32_t c = 0; c < cores; ++c) {
                const auto core = static_cast<CoreId>(c);
                const MemAccess got = real->next(core);
                const MemAccess want = ref.next(core);
                if (got.core != want.core || got.addr != want.addr ||
                    got.type != want.type) {
                    ADD_FAILURE()
                        << what << ": epoch " << e << " reference " << i
                        << " core " << c << ": addr 0x" << std::hex
                        << got.addr << " want 0x" << want.addr
                        << std::dec << ", type "
                        << static_cast<int>(got.type) << " want "
                        << static_cast<int>(want.type);
                    return flagged;
                }
            }
        }
        if (checkpointOf(*real) != checkpointOf(ref)) {
            ADD_FAILURE() << what
                          << ": checkpoint bytes differ after epoch " << e;
            return flagged;
        }
    }
    return flagged;
}

void
mixLockstep(const MixSpec &spec, const GeneratorParams &params,
            std::uint64_t seed, int epochs, std::uint32_t refs)
{
    reference::Mix ref(spec, params, seed);
    lockstep(std::string(spec.name) + " seed " + std::to_string(seed),
             [&](std::uint64_t s) {
                 return std::make_unique<MixWorkload>(spec, params, s);
             },
             seed, ref, epochs, refs);
}

int
parsecLockstep(const BenchmarkProfile &profile,
               const GeneratorParams &params, std::uint64_t seed,
               int epochs, std::uint32_t refs)
{
    constexpr std::uint32_t threads = 16;
    reference::Multithreaded ref(profile, threads, params, seed);
    return lockstep<reference::Multithreaded>(
        std::string(profile.name) + " seed " + std::to_string(seed),
        [&](std::uint64_t s) {
            return std::make_unique<MultithreadedWorkload>(
                profile, threads, params, s);
        },
        seed, ref, epochs, refs,
        [](const reference::Multithreaded &r) {
            return r.cursorsOutOfRange() > 0;
        });
}

/** The reference of a SoloWorkload: one generator on core 0. */
class ReferenceSolo
{
  public:
    ReferenceSolo(const BenchmarkProfile &profile,
                  const GeneratorParams &params, std::uint64_t seed)
        : gen_(profile, 0, params, seed)
    {
    }

    MemAccess next(CoreId) { return gen_.next(); }
    void beginEpoch(EpochId epoch) { gen_.beginEpoch(epoch); }
    void saveState(CkptWriter &w) const { gen_.saveState(w); }

  private:
    reference::Generator gen_;
};

TEST(GeneratorLockstep, EverySpecProfileSolo)
{
    const GeneratorParams params = fastParams();
    EXPECT_EQ(specProfiles().size(), 29u);
    for (const BenchmarkProfile &profile : specProfiles()) {
        for (std::uint64_t seed : kSeeds) {
            ReferenceSolo ref(profile, params, seed);
            lockstep(std::string(profile.name) + " seed " +
                         std::to_string(seed),
                     [&](std::uint64_t s) {
                         return std::make_unique<SoloWorkload>(
                             profile, params, s);
                     },
                     seed, ref, kEpochs, 4000);
        }
    }
}

TEST(GeneratorLockstep, EveryMixAt16Cores)
{
    const GeneratorParams params = fastParams();
    ASSERT_EQ(mixSpecs().size(), 12u);
    for (const MixSpec &spec : mixSpecs()) {
        for (std::uint64_t seed : kSeeds)
            mixLockstep(spec, params, seed, kEpochs, 600);
    }
}

TEST(GeneratorLockstep, EveryParsecAppAt16Threads)
{
    const GeneratorParams params = fastParams();
    ASSERT_EQ(parsecProfiles().size(), 12u);
    int out_of_range = 0;
    for (const BenchmarkProfile &profile : parsecProfiles()) {
        for (std::uint64_t seed : kSeeds)
            out_of_range +=
                parsecLockstep(profile, params, seed, kEpochs, 3000);
    }
    // The shared mid cursor is not wrapped when the shared mid set
    // shrinks; some epoch starts with it past the set.
    EXPECT_GT(out_of_range, 0);
}

TEST(GeneratorLockstep, ParamEdges)
{
    struct Edge
    {
        const char *name;
        std::function<void(GeneratorParams &)> set;
    };
    const std::vector<Edge> edges = {
        {"recentFraction 0",
         [](GeneratorParams &p) { p.recentFraction = 0.0; }},
        {"recentFraction 1",
         [](GeneratorParams &p) { p.recentFraction = 1.0; }},
        {"hotShare 0", [](GeneratorParams &p) { p.hotShare = 0.0; }},
        {"hotShare 1", [](GeneratorParams &p) { p.hotShare = 1.0; }},
        {"class 0 stream 0",
         [](GeneratorParams &p) { p.streamFractionByClass[0] = 0.0; }},
        {"class 0 stream 1",
         [](GeneratorParams &p) { p.streamFractionByClass[0] = 1.0; }},
        {"low phase 0",
         [](GeneratorParams &p) {
             p.lowPhaseEnterProb = 0.0;
             p.lowPhaseStayProb = 0.0;
         }},
        {"low phase 1",
         [](GeneratorParams &p) {
             p.lowPhaseEnterProb = 1.0;
             p.lowPhaseStayProb = 1.0;
         }},
    };
    Rng seeds(2011);
    for (const Edge &edge : edges) {
        SCOPED_TRACE(edge.name);
        GeneratorParams params = fastParams();
        edge.set(params);
        mixLockstep(mixByName("MIX 08"), params, seeds.next(), 6, 400);
        parsecLockstep(profileByName("canneal"), params, seeds.next(), 6,
                       400);
    }
}

constexpr std::uint64_t kTop = std::uint64_t{1} << 53;

static_assert(Rng::chanceThreshold(0.5) == kTop / 2);
static_assert(Rng::chanceThreshold(1.0) == kTop);

TEST(RngThreshold, IntegerCompareMatchesTheDoubleCompare)
{
    const double probabilities[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        0x1.0p-53,
        0.04,
        0.25,
        0.45,
        0.55,
        1.0 - 0x1.0p-53,
        1.0,
        1.5,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    for (double p : probabilities) {
        SCOPED_TRACE(p);
        const std::uint64_t t = Rng::chanceThreshold(p);
        EXPECT_LE(t, kTop);
        const std::uint64_t draws[] = {0, t - 1, t, t + 1, kTop - 1};
        for (std::uint64_t k : draws) {
            if (k >= kTop)
                continue; // t - 1 at t = 0, t and t + 1 at 2^53
            EXPECT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p)
                << "k = " << k << ", threshold " << t;
        }
        // chance(p) is the same rule on a stream.
        Rng a(17);
        Rng b(17);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(a.chance(p), b.uniform() < p);
    }
    EXPECT_EQ(Rng::chanceThreshold(-0.0), 0u);
    EXPECT_EQ(Rng::chanceThreshold(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(Rng::chanceThreshold(
                  std::numeric_limits<double>::denorm_min()),
              1u);
    EXPECT_EQ(Rng::chanceThreshold(0x1.0p-53), 1u);
    EXPECT_EQ(Rng::chanceThreshold(1.0 - 0x1.0p-53), kTop - 1);
    EXPECT_EQ(Rng::chanceThreshold(1.5), kTop);
}

TEST(RngThreshold, HotCutoffSplitsTheWorkingDraw)
{
    const GeneratorParams params;
    std::vector<double> stream_shares(
        std::begin(params.streamFractionByClass),
        std::end(params.streamFractionByClass));
    stream_shares.push_back(0.05); // PARSEC
    stream_shares.push_back(0.0);
    stream_shares.push_back(1.0);
    const double hot_shares[] = {0.0,  0.25, 0.75, 1.0,
                                 std::nextafter(0.75, 0.0),
                                 std::nextafter(0.75, 1.0)};
    for (double s : stream_shares) {
        for (double h : hot_shares) {
            SCOPED_TRACE(::testing::Message()
                         << "stream " << s << " hot " << h);
            const auto hot = [&](std::uint64_t k) {
                const double r = static_cast<double>(k) * 0x1.0p-53;
                return (r - s) / (1.0 - s) < h;
            };
            const std::uint64_t lo = Rng::chanceThreshold(s);
            const std::uint64_t cut = CoreRefGenerator::hotCutoff(s, h);
            ASSERT_GE(cut, lo);
            ASSERT_LE(cut, kTop);
            if (cut > lo) {
                EXPECT_TRUE(hot(cut - 1)) << "cut " << cut;
                EXPECT_TRUE(hot(lo));
            }
            if (cut < kTop) {
                EXPECT_FALSE(hot(cut)) << "cut " << cut;
                EXPECT_FALSE(hot(kTop - 1));
            }
        }
    }
}

} // namespace
} // namespace morphcache
