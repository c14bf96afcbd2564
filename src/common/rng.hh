/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload generators,
 * set-dueling leader selection, ...) flows from explicitly seeded
 * generators so that every experiment is reproducible bit-for-bit.
 *
 * The generator is xoshiro256** seeded through SplitMix64, the
 * standard recipe from Blackman & Vigna.
 */

#ifndef MORPHCACHE_COMMON_RNG_HH
#define MORPHCACHE_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/serial.hh"

namespace morphcache {

/** SplitMix64 step; used for seeding and cheap stateless hashing. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Delay before retry number `attempt` (1-based) of work item
 * `cell_index` under identity `campaign_hash`: bounded exponential
 * backoff (100 ms * 2^(attempt-1), capped at 2 s) with seeded
 * deterministic jitter — a SplitMix64 draw over (hash, index,
 * attempt) maps the delay into [base/2, base]. M workers retrying
 * the same flaky shared-filesystem epoch therefore spread out
 * instead of thundering back in lockstep, yet the schedule is a
 * pure function of the identity triple, so reruns and resumes see
 * identical delays and output bytes never depend on wall time.
 * Lives here (not the runner) because the transient-fault retry in
 * atomicWriteFile reuses it with (path hash, 0, attempt).
 */
inline std::uint64_t
retryDelayMs(std::uint64_t campaign_hash, std::uint64_t cell_index,
             std::uint64_t attempt)
{
    const std::uint64_t shift =
        attempt - 1 < 10 ? attempt - 1 : 10;
    std::uint64_t base = 100ULL << shift;
    if (base > 2000)
        base = 2000;
    // Seeded deterministic jitter into [base/2, base]: distinct
    // multipliers keep (index, attempt) pairs from aliasing, and
    // the SplitMix64 finalizer decorrelates neighbouring cells.
    std::uint64_t state = campaign_hash ^
                          (cell_index * 0x9e3779b97f4a7c15ULL) ^
                          (attempt * 0xbf58476d1ce4e5b9ULL);
    const std::uint64_t draw = splitMix64(state);
    const std::uint64_t half = base / 2;
    return half + draw % (half + 1);
}

/**
 * xoshiro256** PRNG.
 *
 * Small, fast, and high quality; good enough to drive synthetic
 * memory reference streams.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eedULL)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    [[gnu::always_inline]] std::uint64_t
    below(std::uint64_t bound)
    {
        MC_ASSERT(bound != 0);
        // Lemire's multiply-shift rejection-free approximation is
        // fine here; bias is < 2^-64 * bound which is negligible for
        // the bounds used in this project.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [0, 2^53): the draw behind uniform(). */
    std::uint64_t next53() { return next() >> 11; }

    /** Uniform double in [0, 1): next53() * 2^-53, exactly. */
    double
    uniform()
    {
        return static_cast<double>(next53()) * 0x1.0p-53;
    }

    /**
     * The integer form of a probability: ceil(p * 2^53), clamped to
     * [0, 2^53] (0 for p <= 0 or NaN, 2^53 for p >= 1). For every
     * draw k = next53(), k < chanceThreshold(p) exactly when
     * uniform() < p: k * 2^-53 is exact for k < 2^53, so is scaling
     * p by 2^53, and an integer is below x exactly when it is below
     * ceil(x). A caller that draws on every access computes this
     * once and calls chanceAt().
     */
    static constexpr std::uint64_t
    chanceThreshold(double p)
    {
        constexpr std::uint64_t one = std::uint64_t{1} << 53;
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return one;
        const double scaled = p * 0x1.0p53; // exact: a power of two
        const auto whole = static_cast<std::uint64_t>(scaled);
        return static_cast<double>(whole) < scaled ? whole + 1 : whole;
    }

    /** Bernoulli draw against a chanceThreshold(). */
    bool chanceAt(std::uint64_t threshold) { return next53() < threshold; }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return chanceAt(chanceThreshold(p)); }

    /**
     * Standard normal draw (Box-Muller, one value per call, the
     * spare is cached).
     */
    double gaussian();

    /** Serialize the full stream state (checkpoint/restore). */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        for (auto &word : self.state_)
            ar.u64(word);
        ar.b(self.haveSpare_);
        ar.f64(self.spare_);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

inline double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    // Box-Muller transform on two uniforms.
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    spare_ = r * std::sin(theta);
    haveSpare_ = true;
    return r * std::cos(theta);
}

} // namespace morphcache

#endif // MORPHCACHE_COMMON_RNG_HH
