#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace morphcache {

namespace {

/** Clamp an ACF fraction into a usable range. */
double
clampFraction(double f)
{
    return std::clamp(f, 0.05, 0.93);
}

/**
 * Invert a capacity-clipped ACF observation into true demand (in
 * capacity units) through the uniform-reuse residency curve
 * ACF = 1 - exp(-demand/capacity): a benchmark showing a 0.73
 * footprint in a private slice really wants ~1.3 slices. This is
 * what makes capacity sharing (and its absence) matter.
 */
double
demandFromAcf(double acf)
{
    return -std::log(1.0 - acf);
}

/** Per-epoch forward drift of the working sets (fraction). */
constexpr double driftFraction = 0.06;

/** Streaming share for PARSEC (unclassified) benchmarks. */
constexpr double parsecStreamFraction = 0.05;

/**
 * Lines of a hot set's inner tier: its leading innerHotFraction,
 * additionally capped at a fraction of one L2 slice (a program's
 * innermost loops fit its local cache whatever the total footprint
 * is).
 */
std::uint64_t
innerTierLines(const WorkingSet &hot, std::uint64_t l2_slice_lines)
{
    constexpr double innerHotFraction = 0.25;
    const auto cap = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               0.4 * static_cast<double>(l2_slice_lines)));
    return std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(innerHotFraction *
                                   static_cast<double>(hot.lines())),
        1, cap);
}

/** Private line-address region of a stream. */
Addr
privateRegionBase(CoreId core)
{
    // Generous disjoint regions with high-entropy placement:
    // regular bases (e.g. core << 32) partially collide under the
    // ACFV's XOR fold and read as false sharing between unrelated
    // threads, exactly like regular page-coloring artifacts would
    // in hardware. Addresses are line numbers, aligned to 2^20
    // lines.
    std::uint64_t sm = 0x517cc1b727220a95ULL + core;
    return (splitMix64(sm) & 0x3ffff) << 20 | (Addr{1} << 40);
}

} // namespace

WorkingSet
CoreRefGenerator::layoutWorkingSet(Addr base, double demand,
                                   double acf_fraction,
                                   std::uint64_t slice_lines,
                                   double coverage_factor,
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

std::uint64_t
CoreRefGenerator::hotCutoff(double stream_share, double hot_share)
{
    constexpr std::uint64_t top = Rng::chanceThreshold(1.0);
    const std::uint64_t lo = Rng::chanceThreshold(stream_share);
    if (lo == top)
        return top; // every draw streams
    const double span = 1.0 - stream_share; // > 0 unless NaN
    const auto hot = [&](std::uint64_t k) {
        const double r = static_cast<double>(k) * 0x1.0p-53;
        return (r - stream_share) / span < hot_share;
    };
    // hot(k) holds on [lo, cut) and fails on [cut, top): k * 2^-53 is
    // exact, IEEE-754 rounding of the difference and of the quotient
    // is monotone, and span is positive, so the working draw never
    // falls as k rises. Bisect for cut, first within a few draws of
    // the real-valued boundary, where rounding leaves it.
    constexpr std::uint64_t slack = 4;
    const std::uint64_t guess = std::clamp(
        Rng::chanceThreshold(stream_share + hot_share * span), lo, top);
    std::uint64_t a = lo; // a == lo or hot(a - 1)
    std::uint64_t b = top; // b == top or !hot(b)
    if (guess - lo > slack && hot(guess - slack - 1))
        a = guess - slack;
    if (top - guess > slack && !hot(guess + slack))
        b = guess + slack;
    while (a < b) {
        const std::uint64_t mid = a + (b - a) / 2;
        if (hot(mid))
            a = mid + 1;
        else
            b = mid;
    }
    return a;
}

CoreRefGenerator::CoreRefGenerator(const BenchmarkProfile &profile,
                                   CoreId core,
                                   const GeneratorParams &params,
                                   std::uint64_t seed,
                                   double spatial_offset)
    : profile_(profile), core_(core), params_(params),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (core + 1))),
      spatialOffset_(spatial_offset),
      privateBase_(privateRegionBase(core)),
      ring_(recentRing, privateRegionBase(core))
{
    primeCutoffs();
    beginEpoch(0);
}

void
CoreRefGenerator::primeCutoffs()
{
    const double stream_share =
        profile_.cls >= 0 ? params_.streamFractionByClass[profile_.cls]
                          : parsecStreamFraction;
    recentCut_ = Rng::chanceThreshold(params_.recentFraction);
    streamCut_ = Rng::chanceThreshold(stream_share);
    hotCut_ = hotCutoff(stream_share, params_.hotShare);
}

void
CoreRefGenerator::layoutSharedTier()
{
    sharedInner_ = innerTierLines(shared_.hot, params_.l2SliceLines);
    sharedCut_ = Rng::chanceThreshold(shared_.fraction);
}

void
CoreRefGenerator::setSharedRegion(const SharedRegionSpec &spec)
{
    shared_ = spec;
    layoutSharedTier();
}

void
CoreRefGenerator::beginEpoch(EpochId epoch)
{
    // Per-epoch footprint fractions: Table 4 mean + AR(1) temporal
    // noise (+ the per-thread spatial offset for multithreaded
    // apps), scaled down during persistent low-footprint phases:
    // the low phase's footprint multiplier and the noise's
    // autocorrelation.
    constexpr double lowPhaseScale = 0.35;
    constexpr double noiseAr1 = 0.6;
    inLowPhase_ = inLowPhase_
                      ? rng_.chance(params_.lowPhaseStayProb)
                      : rng_.chance(params_.lowPhaseEnterProb);
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

    // Hot set: anchored to the L2 scale.
    WorkingSet hot = layoutWorkingSet(
        0, d2, f2, params_.l2SliceLines, params_.l2CoverageFactor,
        params_.acfvBits);

    // Slow forward drift creates fresh (compulsory-miss) lines and
    // the phase behaviour behind Figure 2(a).
    const auto drift = static_cast<Addr>(
        driftFraction * static_cast<double>(hot.spanLines()));
    hot.base = privateBase_ + drift * epoch;
    hot_ = hot;

    // Mid set: anchored to the L3 scale, minus what the hot span
    // already contributes to the L3 footprint.
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
    hotInner_ = innerTierLines(hot_, params_.l2SliceLines);

    if (streamPtr_ == 0)
        streamPtr_ = privateBase_ + (Addr{1} << 28);
}

// --- MixWorkload --------------------------------------------------

MixWorkload::MixWorkload(const MixSpec &spec,
                         const GeneratorParams &params,
                         std::uint64_t seed)
    : name_(spec.name)
{
    MC_ASSERT(!spec.benchmarks.empty());
    gens_.reserve(spec.benchmarks.size());
    for (std::size_t i = 0; i < spec.benchmarks.size(); ++i) {
        gens_.emplace_back(profileByName(spec.benchmarks[i]),
                           static_cast<CoreId>(i), params,
                           seed + 0x1000 * i);
    }
}

MemAccess
MixWorkload::next(CoreId core)
{
    MC_ASSERT(core < gens_.size());
    return gens_[core].next();
}

void
MixWorkload::beginEpoch(EpochId epoch)
{
    for (auto &gen : gens_)
        gen.beginEpoch(epoch);
}

std::uint32_t
MixWorkload::numCores() const
{
    return static_cast<std::uint32_t>(gens_.size());
}

std::unique_ptr<Workload>
MixWorkload::clone() const
{
    return std::make_unique<MixWorkload>(*this);
}

CoreRefGenerator &
MixWorkload::core(CoreId core)
{
    MC_ASSERT(core < gens_.size());
    return gens_[core];
}

// --- MultithreadedWorkload ----------------------------------------

MultithreadedWorkload::MultithreadedWorkload(
    const BenchmarkProfile &profile, std::uint32_t num_threads,
    const GeneratorParams &params, std::uint64_t seed)
    : profile_(profile), params_(params), appRng_(seed)
{
    MC_ASSERT(profile.multithreaded);
    gens_.reserve(num_threads);
    for (std::uint32_t t = 0; t < num_threads; ++t) {
        // Fixed per-thread footprint offset: the spatial sigma of
        // Table 4.
        const double offset = profile.l2SigmaS * appRng_.gaussian();
        gens_.emplace_back(profile, static_cast<CoreId>(t), params,
                           seed + 0x2000 * (t + 1), offset);
    }
    refreshSharedRegion(0);
}

void
MultithreadedWorkload::refreshSharedRegion(EpochId epoch)
{
    // The shared region lives in its own range, common to every
    // thread, and breathes with the application's temporal sigma.
    const double f2 = clampFraction(profile_.l2Acf +
                                    profile_.l2SigmaT *
                                        appRng_.gaussian());
    const double f3 = clampFraction(profile_.l3Acf +
                                    profile_.l3SigmaT *
                                        appRng_.gaussian());
    const double d2 = demandFromAcf(f2);
    const double d3 = demandFromAcf(f3);

    shared_.hot = CoreRefGenerator::layoutWorkingSet(
        Addr{1} << 52, d2, f2, params_.l2SliceLines,
        params_.l2CoverageFactor, params_.acfvBits);
    const auto drift = static_cast<Addr>(
        driftFraction * static_cast<double>(shared_.hot.spanLines()));
    shared_.hot.base += drift * epoch;

    shared_.mid = CoreRefGenerator::layoutWorkingSet(
        shared_.hot.base + shared_.hot.spanLines() + 4096, d3, f3,
        params_.l3SliceLines, params_.l3CoverageFactor,
        params_.acfvBits);
    shared_.fraction = profile_.sharedFraction;
    for (auto &gen : gens_)
        gen.setSharedRegion(shared_);
}

MemAccess
MultithreadedWorkload::next(CoreId core)
{
    MC_ASSERT(core < gens_.size());
    return gens_[core].next();
}

void
MultithreadedWorkload::beginEpoch(EpochId epoch)
{
    refreshSharedRegion(epoch);
    for (auto &gen : gens_)
        gen.beginEpoch(epoch);
}

std::uint32_t
MultithreadedWorkload::numCores() const
{
    return static_cast<std::uint32_t>(gens_.size());
}

std::unique_ptr<Workload>
MultithreadedWorkload::clone() const
{
    return std::make_unique<MultithreadedWorkload>(*this);
}

CoreRefGenerator &
MultithreadedWorkload::thread(CoreId core)
{
    MC_ASSERT(core < gens_.size());
    return gens_[core];
}

// --- SoloWorkload -------------------------------------------------

SoloWorkload::SoloWorkload(const BenchmarkProfile &profile,
                           const GeneratorParams &params,
                           std::uint64_t seed)
    : gen_(profile, 0, params, seed)
{
}

MemAccess
SoloWorkload::next(CoreId core)
{
    MC_ASSERT(core == 0);
    return gen_.next();
}

void
SoloWorkload::beginEpoch(EpochId epoch)
{
    gen_.beginEpoch(epoch);
}

std::unique_ptr<Workload>
SoloWorkload::clone() const
{
    return std::make_unique<SoloWorkload>(*this);
}

namespace {

/** A working set's geometry, checked before it is assigned. */
template <class Ar, class Set>
void
checkpointWorkingSet(Ar &ar, Set &set)
{
    WorkingSet loaded = set;
    ar.u64(loaded.base);
    ar.u64(loaded.chunkCount);
    ar.u64(loaded.chunkLines);
    ar.u64(loaded.stride);
    if constexpr (Ar::loading) {
        if (loaded.chunkLines == 0 || loaded.stride < loaded.chunkLines)
            ar.fail("working-set geometry invalid (chunkLines " +
                    std::to_string(loaded.chunkLines) + ", stride " +
                    std::to_string(loaded.stride) + ")");
        set = loaded;
    }
}

template <class Ar, class Region>
void
checkpointSharedRegion(Ar &ar, Region &region)
{
    checkpointWorkingSet(ar, region.hot);
    checkpointWorkingSet(ar, region.mid);
    ar.f64(region.fraction);
}

} // namespace

template <class Ar, class Self>
void
CoreRefGenerator::checkpointFields(Ar &ar, Self &self)
{
    ar.nested(self.rng_);
    checkpointWorkingSet(ar, self.hot_);
    checkpointWorkingSet(ar, self.mid_);
    ar.u64(self.midPos_);
    ar.u64(self.sharedMidPos_);
    ar.u64(self.streamPtr_);
    ar.b(self.inLowPhase_);
    ar.f64(self.noise2_);
    ar.f64(self.noise3_);
    checkpointSharedRegion(ar, self.shared_);
    ar.b(self.lastShared_);
    ar.fixedVec("recency ring size", self.ring_);
    // One bool per ring slot, in slot order.
    ar.expectU64("recency ring flag count", recentRing);
    for (std::uint32_t i = 0; i < recentRing; ++i) {
        const std::uint64_t bit = std::uint64_t{1} << i;
        bool shared = (self.ringShared_ & bit) != 0;
        ar.b(shared);
        if constexpr (Ar::loading)
            self.ringShared_ = shared ? self.ringShared_ | bit
                                      : self.ringShared_ & ~bit;
    }
    ar.u64AtMost("recency ring cursor", self.ringNext_,
                 self.ring_.size() - 1);
}

void
CoreRefGenerator::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
CoreRefGenerator::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
    primeCutoffs();
    hotInner_ = innerTierLines(hot_, params_.l2SliceLines);
    layoutSharedTier();
}

template <class Ar, class Self>
void
MixWorkload::checkpointFields(Ar &ar, Self &self)
{
    ar.expectU64("mix generator count", self.gens_.size());
    for (auto &gen : self.gens_)
        ar.nested(gen);
}

void
MixWorkload::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
MixWorkload::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

template <class Ar, class Self>
void
MultithreadedWorkload::checkpointFields(Ar &ar, Self &self)
{
    ar.nested(self.appRng_);
    checkpointSharedRegion(ar, self.shared_);
    ar.expectU64("thread generator count", self.gens_.size());
    for (auto &gen : self.gens_)
        ar.nested(gen);
}

void
MultithreadedWorkload::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
MultithreadedWorkload::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

} // namespace morphcache
