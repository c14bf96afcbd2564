/**
 * @file
 * Test-only reference for the reference generators: the epoch
 * layout and per-reference draw path of CoreRefGenerator, the
 * per-core seeding of MixWorkload and the shared region of
 * MultithreadedWorkload, written the plain way.
 *
 * Every Bernoulli draw compares a uniform double with its
 * probability; the hot/mid choice rescales the working draw
 * `(r - s) / (1 - s)` and compares it with the hot share; the inner
 * hot tier's bound is worked out again on every inner draw; working
 * sets divide with `/` and `%`; and the recency ring keeps one bool
 * per slot. The lockstep test (generator_lockstep_test.cc) drives
 * these beside the real workloads and compares every reference and
 * the checkpoint bytes after every epoch, so the generators' integer
 * thresholds, precomputed tiers and flag word are checked against
 * code that has none of them.
 *
 * It also keeps the shared mid-set cursor exactly as it behaves:
 * nothing wraps a thread's cursor when the shared mid set shrinks at
 * an epoch boundary, so the next shared mid draw reads one position
 * past the set before wrapping.
 */

#ifndef MORPHCACHE_TESTS_GENERATOR_REFERENCE_HH
#define MORPHCACHE_TESTS_GENERATOR_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace reference {

/** Uniform double in [0, 1): the top 53 bits of one draw. */
inline double
uniform(Rng &rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/** Bernoulli draw with probability p. */
inline bool
chance(Rng &rng, double p)
{
    return uniform(rng) < p;
}

/** Uniform integer in [0, bound) by multiply-shift. */
inline std::uint64_t
below(Rng &rng, std::uint64_t bound)
{
    MC_ASSERT(bound != 0);
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(rng.next()) * bound) >> 64);
}

inline double
clampFraction(double f)
{
    return std::clamp(f, 0.05, 0.93);
}

inline double
demandFromAcf(double acf)
{
    return -std::log(1.0 - acf);
}

constexpr double driftFraction = 0.06;
constexpr std::uint32_t recentRing = 48;

inline Addr
privateRegionBase(CoreId core)
{
    std::uint64_t sm = 0x517cc1b727220a95ULL + core;
    return (splitMix64(sm) & 0x3ffff) << 20 | (Addr{1} << 40);
}

/** A chunked-sparse working set, divided the plain way. */
struct WorkingSet
{
    Addr base = 0;
    std::uint64_t chunkCount = 1;
    std::uint64_t chunkLines = 1;
    std::uint64_t stride = 1;

    std::uint64_t lines() const { return chunkCount * chunkLines; }
    std::uint64_t spanLines() const { return chunkCount * stride; }

    Addr
    lineAt(std::uint64_t pos) const
    {
        const std::uint64_t chunk = pos / chunkLines;
        const std::uint64_t within = pos % chunkLines;
        const std::uint64_t room = satSub(stride, chunkLines) + 1;
        const std::uint64_t hash = chunk * 0x9e3779b97f4a7c15ULL >> 32;
        return base + chunk * stride + hash % room + within;
    }

    void
    save(CkptWriter &w) const
    {
        w.u64(base);
        w.u64(chunkCount);
        w.u64(chunkLines);
        w.u64(stride);
    }
};

inline WorkingSet
layoutWorkingSet(Addr base, double demand, double acf_fraction,
                 std::uint64_t slice_lines, double coverage_factor,
                 std::uint32_t acfv_bits)
{
    WorkingSet set;
    set.base = base;
    const auto granule = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(slice_lines) * coverage_factor /
               acfv_bits));
    set.stride = granule;
    set.chunkCount = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(acf_fraction * acfv_bits));
    const auto lines = std::max<std::uint64_t>(
        32, static_cast<std::uint64_t>(
                demand * static_cast<double>(slice_lines)));
    set.chunkLines =
        std::clamp<std::uint64_t>(lines / set.chunkCount, 1, granule);
    return set;
}

struct SharedRegion
{
    WorkingSet hot;
    WorkingSet mid;
    double fraction = 0.0;

    void
    save(CkptWriter &w) const
    {
        hot.save(w);
        mid.save(w);
        w.f64(fraction);
    }
};

/** One core's stream. */
class Generator
{
  public:
    Generator(const BenchmarkProfile &profile, CoreId core,
              const GeneratorParams &params, std::uint64_t seed,
              double spatial_offset = 0.0)
        : profile_(profile), core_(core), params_(params),
          rng_(seed ^ (0x9e3779b97f4a7c15ULL * (core + 1))),
          spatialOffset_(spatial_offset),
          privateBase_(privateRegionBase(core)),
          ring_(recentRing, privateRegionBase(core)),
          ringShared_(recentRing, false)
    {
        beginEpoch(0);
    }

    void setSharedRegion(const SharedRegion &spec) { shared_ = spec; }

    void
    beginEpoch(EpochId epoch)
    {
        constexpr double lowPhaseScale = 0.35;
        constexpr double noiseAr1 = 0.6;
        inLowPhase_ = inLowPhase_
                          ? chance(rng_, params_.lowPhaseStayProb)
                          : chance(rng_, params_.lowPhaseEnterProb);
        const double phase = inLowPhase_ ? lowPhaseScale : 1.0;
        const double fresh = std::sqrt(1.0 - noiseAr1 * noiseAr1);
        noise2_ = noiseAr1 * noise2_ + fresh * rng_.gaussian();
        noise3_ = noiseAr1 * noise3_ + fresh * rng_.gaussian();
        const double f2 = clampFraction(
            phase * (profile_.l2Acf + profile_.l2SigmaT * noise2_ +
                     spatialOffset_));
        const double f3 = clampFraction(
            phase * (profile_.l3Acf + profile_.l3SigmaT * noise3_ +
                     spatialOffset_));

        const double d2 = demandScale * demandFromAcf(f2);
        const double d3 = demandScale * demandFromAcf(f3);

        WorkingSet hot = layoutWorkingSet(
            0, d2, f2, params_.l2SliceLines, params_.l2CoverageFactor,
            params_.acfvBits);
        const auto drift = static_cast<Addr>(
            driftFraction * static_cast<double>(hot.spanLines()));
        hot.base = privateBase_ + drift * epoch;
        hot_ = hot;

        const auto l3_granule = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(params_.l3SliceLines) *
                   params_.l3CoverageFactor / params_.acfvBits));
        const std::uint64_t hot_l3_granules =
            hot_.spanLines() / l3_granule + 1;
        const double target_granules = f3 * params_.acfvBits;
        const std::uint64_t mid_granules = std::max<std::uint64_t>(
            1, satSub(static_cast<std::uint64_t>(target_granules),
                      hot_l3_granules));
        const auto d3_lines = static_cast<std::uint64_t>(
            d3 * static_cast<double>(params_.l3SliceLines));
        const std::uint64_t mid_lines = std::max<std::uint64_t>(
            64, satSub(d3_lines, hot_.lines()));
        WorkingSet mid;
        mid.base = hot_.base + hot_.spanLines() + l3_granule;
        mid.stride = l3_granule;
        mid.chunkCount = mid_granules;
        mid.chunkLines = std::clamp<std::uint64_t>(
            mid_lines / mid_granules, 1, l3_granule);
        mid_ = mid;
        if (midPos_ >= mid_.lines())
            midPos_ = 0;

        if (streamPtr_ == 0)
            streamPtr_ = privateBase_ + (Addr{1} << 28);
    }

    MemAccess
    next()
    {
        Addr line;
        bool shared;
        if (chance(rng_, params_.recentFraction)) {
            const auto slot = below(rng_, ring_.size());
            line = ring_[slot];
            shared = ringShared_[slot];
        } else {
            line = drawLine();
            shared = lastShared_;
            ring_[ringNext_] = line;
            ringShared_[ringNext_] = shared;
            ringNext_ = (ringNext_ + 1) % recentRing;
        }
        constexpr double writeFraction = 0.25;
        constexpr double sharedWriteFraction = 0.04;
        MemAccess access;
        access.core = core_;
        access.addr = line << 6;
        const double write_frac =
            shared ? sharedWriteFraction : writeFraction;
        access.type = chance(rng_, write_frac) ? AccessType::Write
                                               : AccessType::Read;
        return access;
    }

    /** The cursor is past the shared mid set (see the file note). */
    bool
    sharedCursorOutOfRange() const
    {
        return shared_.fraction > 0.0 &&
               sharedMidPos_ >= shared_.mid.lines();
    }

    /** The generator's checkpoint bytes, field by field. */
    void
    saveState(CkptWriter &w) const
    {
        rng_.saveState(w);
        hot_.save(w);
        mid_.save(w);
        w.u64(midPos_);
        w.u64(sharedMidPos_);
        w.u64(streamPtr_);
        w.b(inLowPhase_);
        w.f64(noise2_);
        w.f64(noise3_);
        shared_.save(w);
        w.b(lastShared_);
        w.u64(ring_.size());
        for (Addr line : ring_)
            w.u64(line);
        w.u64(ringShared_.size());
        for (bool flag : ringShared_)
            w.b(flag);
        w.u64(ringNext_);
    }

  private:
    Addr
    drawLine()
    {
        constexpr double parsecStreamFraction = 0.05;
        constexpr double innerHotFraction = 0.25;
        constexpr double innerHotShare = 0.55;
        const double stream_frac =
            profile_.cls >= 0
                ? params_.streamFractionByClass[profile_.cls]
                : parsecStreamFraction;
        const double r = uniform(rng_);
        lastShared_ = false;
        if (r < stream_frac)
            return streamPtr_++;
        const double working = (r - stream_frac) / (1.0 - stream_frac);
        if (working < params_.hotShare) {
            lastShared_ = shared_.fraction > 0.0 &&
                          chance(rng_, shared_.fraction);
            const WorkingSet &hot = lastShared_ ? shared_.hot : hot_;
            if (chance(rng_, innerHotShare)) {
                const auto cap = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           0.4 * static_cast<double>(
                                     params_.l2SliceLines)));
                const auto inner = std::clamp<std::uint64_t>(
                    static_cast<std::uint64_t>(
                        innerHotFraction *
                        static_cast<double>(hot.lines())),
                    1, cap);
                return hot.lineAt(below(rng_, inner));
            }
            return hot.lineAt(below(rng_, hot.lines()));
        }
        if (shared_.fraction > 0.0 && chance(rng_, shared_.fraction)) {
            lastShared_ = true;
            const Addr line = shared_.mid.lineAt(sharedMidPos_);
            if (++sharedMidPos_ >= shared_.mid.lines())
                sharedMidPos_ = 0;
            return line;
        }
        const Addr line = mid_.lineAt(midPos_);
        if (++midPos_ >= mid_.lines())
            midPos_ = 0;
        return line;
    }

    BenchmarkProfile profile_;
    CoreId core_;
    GeneratorParams params_;
    Rng rng_;
    double spatialOffset_;
    Addr privateBase_;
    WorkingSet hot_;
    WorkingSet mid_;
    std::uint64_t midPos_ = 0;
    std::uint64_t sharedMidPos_ = 0;
    Addr streamPtr_ = 0;
    bool inLowPhase_ = false;
    double noise2_ = 0.0;
    double noise3_ = 0.0;
    SharedRegion shared_;
    bool lastShared_ = false;
    std::vector<Addr> ring_;
    std::vector<bool> ringShared_;
    std::uint32_t ringNext_ = 0;
};

/** A Table 5 mix: core i runs benchmark i from seed + 0x1000 i. */
class Mix
{
  public:
    Mix(const MixSpec &spec, const GeneratorParams &params,
        std::uint64_t seed)
    {
        gens_.reserve(spec.benchmarks.size());
        for (std::size_t i = 0; i < spec.benchmarks.size(); ++i)
            gens_.emplace_back(profileByName(spec.benchmarks[i]),
                               static_cast<CoreId>(i), params,
                               seed + 0x1000 * i);
    }

    MemAccess next(CoreId core) { return gens_[core].next(); }

    void
    beginEpoch(EpochId epoch)
    {
        for (auto &gen : gens_)
            gen.beginEpoch(epoch);
    }

    void
    saveState(CkptWriter &w) const
    {
        w.u64(gens_.size());
        for (const auto &gen : gens_)
            gen.saveState(w);
    }

  private:
    std::vector<Generator> gens_;
};

/**
 * One multithreaded application: thread t runs from
 * seed + 0x2000 (t + 1) with a Gaussian footprint offset, and every
 * epoch re-lays one shared region out for all threads.
 */
class Multithreaded
{
  public:
    Multithreaded(const BenchmarkProfile &profile,
                  std::uint32_t num_threads,
                  const GeneratorParams &params, std::uint64_t seed)
        : profile_(profile), params_(params), appRng_(seed)
    {
        gens_.reserve(num_threads);
        for (std::uint32_t t = 0; t < num_threads; ++t) {
            const double offset = profile.l2SigmaS * appRng_.gaussian();
            gens_.emplace_back(profile, static_cast<CoreId>(t), params,
                               seed + 0x2000 * (t + 1), offset);
        }
        refreshSharedRegion(0);
    }

    MemAccess next(CoreId core) { return gens_[core].next(); }

    void
    beginEpoch(EpochId epoch)
    {
        refreshSharedRegion(epoch);
        for (auto &gen : gens_)
            gen.beginEpoch(epoch);
    }

    /** Threads whose shared mid cursor is past the shared mid set. */
    std::uint32_t
    cursorsOutOfRange() const
    {
        std::uint32_t n = 0;
        for (const auto &gen : gens_) {
            if (gen.sharedCursorOutOfRange())
                ++n;
        }
        return n;
    }

    void
    saveState(CkptWriter &w) const
    {
        appRng_.saveState(w);
        shared_.save(w);
        w.u64(gens_.size());
        for (const auto &gen : gens_)
            gen.saveState(w);
    }

  private:
    void
    refreshSharedRegion(EpochId epoch)
    {
        const double f2 = clampFraction(profile_.l2Acf +
                                        profile_.l2SigmaT *
                                            appRng_.gaussian());
        const double f3 = clampFraction(profile_.l3Acf +
                                        profile_.l3SigmaT *
                                            appRng_.gaussian());
        const double d2 = demandFromAcf(f2);
        const double d3 = demandFromAcf(f3);

        shared_.hot = layoutWorkingSet(
            Addr{1} << 52, d2, f2, params_.l2SliceLines,
            params_.l2CoverageFactor, params_.acfvBits);
        const auto drift = static_cast<Addr>(
            driftFraction *
            static_cast<double>(shared_.hot.spanLines()));
        shared_.hot.base += drift * epoch;

        shared_.mid = layoutWorkingSet(
            shared_.hot.base + shared_.hot.spanLines() + 4096, d3, f3,
            params_.l3SliceLines, params_.l3CoverageFactor,
            params_.acfvBits);
        shared_.fraction = profile_.sharedFraction;
        for (auto &gen : gens_)
            gen.setSharedRegion(shared_);
    }

    BenchmarkProfile profile_;
    GeneratorParams params_;
    Rng appRng_;
    SharedRegion shared_;
    std::vector<Generator> gens_;
};

} // namespace reference
} // namespace morphcache

#endif // MORPHCACHE_TESTS_GENERATOR_REFERENCE_HH
