/**
 * @file
 * Synthetic memory-reference generators calibrated to Table 4.
 *
 * Each core's stream follows a phased two-level working-set model:
 *
 *  - a *hot* set sized to the benchmark's L2 ACF fraction, re-drawn
 *    every epoch around the Table 4 mean with the published
 *    temporal sigma (and, for multithreaded apps, a per-thread
 *    spatial offset with the published spatial sigma);
 *  - a *mid* set sized so hot+mid matches the benchmark's L3 ACF;
 *  - a slowly advancing *streaming* tail producing compulsory
 *    misses;
 *  - a small recency ring that recreates L1-level temporal
 *    locality.
 *
 * Multithreaded (PARSEC) generators additionally direct a
 * per-benchmark fraction of hot/mid draws at regions shared by all
 * threads of the application (read-mostly, like real shared data),
 * which is what MorphCache's data-sharing merge condition
 * (Section 2.2, condition ii) keys on.
 *
 * Working sets are chunked-sparse spans (WorkingSet below): dense
 * chunks give line-level locality while the chunk dispersion
 * spreads the footprint over one tag granule per chunk, the way
 * real scattered heaps look to a tag-hashing estimator — this is
 * what keeps the ACFV estimate proportional to the footprint
 * (Figure 5's high correlation).
 */

#ifndef MORPHCACHE_WORKLOAD_GENERATOR_HH
#define MORPHCACHE_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "workload/profiles.hh"

namespace morphcache {

/**
 * Demand pressure multiplier applied to the inverted footprint
 * demands. Above 1, the aggregate demand of a 16-application mix
 * exceeds the total cache capacity, which is the regime the paper's
 * mixes operate in (reference-input SPEC footprints dwarf on-chip
 * caches) and the one where topology choices matter.
 */
inline constexpr double demandScale = 1.25;

/**
 * Tunables of the reference generator. The calibrated model
 * constants that no configuration varies (phase scale, AR(1) noise,
 * inner hot tier, write rates, drift, recency ring, PARSEC stream
 * share) live beside the code that reads them: the per-reference
 * draw's in CoreRefGenerator below, the rest in generator.cc.
 */
struct GeneratorParams
{
    /** Lines in one L2 slice (footprint scale anchor). */
    std::uint64_t l2SliceLines = 4096;
    /** Lines in one L3 slice. */
    std::uint64_t l3SliceLines = 16384;
    /**
     * Address-space dispersion of the L2-active footprint: a full
     * footprint (ACF 1.0) spans this many times the slice capacity.
     * Matches the ACFV tag-granularity coverage, acfvBits/assoc
     * (128/8 for the Table 3 L2), so measured ACFV utilization
     * lands on the Table 4 ACF value by construction.
     */
    double l2CoverageFactor = 16.0;
    /** Same for L3 (128/16 for the Table 3 L3). */
    double l3CoverageFactor = 8.0;
    /** ACFV length assumed for granule sizing. */
    std::uint32_t acfvBits = 128;
    /** Probability of re-referencing a recently touched line. */
    double recentFraction = 0.45;
    /** Of the non-stream working-set draws: hot-set share. */
    double hotShare = 0.75;
    /**
     * Phase behaviour: SPEC programs alternate between
     * memory-hungry and compute phases that *persist* for several
     * reconfiguration intervals — persistence is what makes a
     * reactive scheme like MorphCache (which acts one epoch after
     * observing) profitable. Modelled as a two-state Markov chain
     * with these entry/stay probabilities, a footprint multiplier
     * for the low phase, and AR(1)-correlated sigma_t noise.
     */
    double lowPhaseEnterProb = 0.08;
    double lowPhaseStayProb = 0.70;
    /**
     * Streaming (no-reuse) share of the working draws per paper
     * class. Class 0 (low active footprint at both levels) hosts
     * the classic SPEC streamers — libquantum, lbm, GemsFDTD —
     * whose traffic pollutes shared caches; cache-resident classes
     * stream little.
     */
    double streamFractionByClass[4] = {0.30, 0.08, 0.05, 0.03};
};

/**
 * Layout of one chunked-sparse working set: `chunkCount` chunks of
 * `chunkLines` consecutive lines, one chunk per `stride`-line
 * granule starting at `base`. The sparse layout disperses the
 * footprint over many tags, the way real scattered heaps do, so
 * the tag-granular ACFV sees it; the dense chunks preserve
 * line-level locality.
 */
struct WorkingSet
{
    Addr base = 0;
    std::uint64_t chunkCount = 1;
    std::uint64_t chunkLines = 1;
    std::uint64_t stride = 1;

    /** Total lines in the set. */
    std::uint64_t
    lines() const
    {
        return chunkCount * chunkLines;
    }

    /** Line at sweep position pos (0 <= pos < lines()). */
    [[gnu::always_inline]] Addr
    lineAt(std::uint64_t pos) const
    {
        // Millions of calls per epoch against divisors that change
        // only at epoch boundaries: divide through cached
        // reciprocals, re-primed lazily whenever the geometry
        // fields were reassigned (copy, deserialize, re-layout).
        // The quotients are exactly those of the plain / and %
        // below, so which path runs never affects the stream.
        std::uint64_t chunk, within;
        if (chunkDiv_.divisor() != chunkLines)
            chunkDiv_.prime(chunkLines);
        if (chunkDiv_.fits(pos)) {
            chunk = chunkDiv_.quotient(pos);
            within = pos - chunk * chunkLines;
        } else {
            chunk = pos / chunkLines;
            within = pos % chunkLines;
        }
        // Scatter each chunk within its granule: with a common
        // offset, chunks at a sets-multiple stride would all map
        // to the same cache sets and conflict pathologically.
        // chunkLines <= stride by construction (chunks tile the
        // granule); saturate so a violated invariant degrades to
        // room == 1 (no scatter) instead of a ~2^64 modulus that
        // sprays addresses across the whole 64-bit space.
        const std::uint64_t room = satSub(stride, chunkLines) + 1;
        const std::uint64_t hash =
            chunk * 0x9e3779b97f4a7c15ULL >> 32;
        if (roomDiv_.divisor() != room)
            roomDiv_.prime(room);
        const std::uint64_t offset =
            roomDiv_.fits(hash)
                ? hash - roomDiv_.quotient(hash) * room
                : hash % room;
        return base + chunk * stride + offset + within;
    }

    /** Address-space span in lines. */
    std::uint64_t
    spanLines() const
    {
        return chunkCount * stride;
    }

  private:
    /**
     * Cached reciprocals for lineAt (not part of the set's value:
     * excluded from serialization and comparison, rebuilt on
     * demand). Mutable because priming is a pure cache fill on a
     * logically-const query path.
     */
    mutable FastU32Div chunkDiv_;
    mutable FastU32Div roomDiv_;
};

/** Shared-region placement for one multithreaded application. */
struct SharedRegionSpec
{
    /** Shared hot working set (uniform reuse). */
    WorkingSet hot;
    /** Shared mid working set (swept). */
    WorkingSet mid;
    /** Fraction of hot/mid draws redirected to the shared region. */
    double fraction = 0.0;
};

/**
 * Reference stream of one core (one single-threaded application,
 * or one thread of a multithreaded application).
 */
class CoreRefGenerator
{
  public:
    /**
     * @param profile Table 4 row driving the footprint statistics.
     * @param core Core this stream runs on.
     * @param params Generator tunables.
     * @param seed Deterministic seed.
     * @param spatial_offset Per-thread footprint offset in ACF
     *        fraction units (0 for single-threaded).
     */
    CoreRefGenerator(const BenchmarkProfile &profile, CoreId core,
                     const GeneratorParams &params,
                     std::uint64_t seed, double spatial_offset = 0.0);

    /** Re-draw the epoch's working sets. */
    void beginEpoch(EpochId epoch);

    /** Produce the next reference. */
    [[gnu::always_inline]] inline MemAccess next();

    /** Attach the shared region of a multithreaded application. */
    void setSharedRegion(const SharedRegionSpec &spec);

    /** Current hot-set size in lines (tests/characterization). */
    std::uint64_t hotLines() const { return hot_.lines(); }

    /** Current mid-set size in lines. */
    std::uint64_t midLines() const { return mid_.lines(); }

    /** Profile driving this stream. */
    const BenchmarkProfile &profile() const { return profile_; }

    /**
     * Build a chunked-sparse working set from demand (capacity
     * units of `slice_lines`) and dispersion (ACF fraction of the
     * tag coverage). Exposed for tests and the shared-region setup.
     */
    static WorkingSet layoutWorkingSet(Addr base, double demand,
                                       double acf_fraction,
                                       std::uint64_t slice_lines,
                                       double coverage_factor,
                                       std::uint32_t acfv_bits);

    /**
     * The hot/mid cutoff of a stream whose raw draws k below
     * Rng::chanceThreshold(stream_share) stream: the least k at or
     * above that threshold whose working draw
     * (k * 2^-53 - stream_share) / (1 - stream_share), in doubles,
     * is not below hot_share; 2^53 if there is none. Exposed for
     * tests.
     */
    static std::uint64_t hotCutoff(double stream_share,
                                   double hot_share);

    /**
     * Serialize the full stream cursor: PRNG, working sets, sweep
     * positions, phase/noise memory, shared region, recency ring.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    [[gnu::always_inline]] inline Addr drawLine();

    /** Set the cutoffs the profile and the params fix. */
    void primeCutoffs();

    /** Set the shared region's inner tier and coin threshold. */
    void layoutSharedTier();

    /** Recency ring length (L1 locality). */
    static constexpr std::uint32_t recentRing = 48;
    static_assert(recentRing <= 64, "one ringShared_ bit per slot");

    BenchmarkProfile profile_;  // ckpt: derived(CoreRefGenerator)
    CoreId core_;               // ckpt: derived(CoreRefGenerator)
    GeneratorParams params_;    // ckpt: derived(CoreRefGenerator)
    Rng rng_;
    double spatialOffset_;      // ckpt: derived(CoreRefGenerator)

    /**
     * Per-reference coins as Rng::chanceThreshold values: the
     * recency coin, and the raw-draw cutoffs below which drawLine
     * streams (streamCut_) or reuses the hot set (hotCut_).
     */
    std::uint64_t recentCut_ = 0; // ckpt: derived(primeCutoffs)
    std::uint64_t streamCut_ = 0; // ckpt: derived(primeCutoffs)
    std::uint64_t hotCut_ = 0;    // ckpt: derived(primeCutoffs)

    /** First private line of this stream's address space. */
    Addr privateBase_;          // ckpt: derived(CoreRefGenerator)
    WorkingSet hot_;
    WorkingSet mid_;
    /** Sweep cursor through the mid set. */
    std::uint64_t midPos_ = 0;
    std::uint64_t sharedMidPos_ = 0;
    Addr streamPtr_ = 0;
    /** Markov phase state and AR(1) noise memory. */
    bool inLowPhase_ = false;
    double noise2_ = 0.0;
    double noise3_ = 0.0;

    SharedRegionSpec shared_;
    /** Whether the last drawLine() hit the shared region. */
    bool lastShared_ = false;

    /**
     * Inner-tier bounds of hot_ (set where beginEpoch lays it out)
     * and of shared_.hot, and the shared coin's threshold: fixed
     * while the working sets are.
     */
    std::uint64_t hotInner_ = 1;    // ckpt: derived(loadState)
    std::uint64_t sharedInner_ = 1; // ckpt: derived(layoutSharedTier)
    std::uint64_t sharedCut_ = 0;   // ckpt: derived(layoutSharedTier)

    std::vector<Addr> ring_;
    /** Sharedness of ring slot i in bit i (write-rate selection). */
    std::uint64_t ringShared_ = 0;
    std::uint32_t ringNext_ = 0;
};

inline Addr
CoreRefGenerator::drawLine()
{
    // Loop-style reuse concentration: the inner tier (the hot set's
    // leading lines, see innerTierLines) receives this share of the
    // hot draws, giving the short reuse distances real inner loops
    // produce (without it, uniform reuse is a pathological worst
    // case for any recency-based policy).
    constexpr double innerHotShare = 0.55;
    constexpr std::uint64_t innerCut = Rng::chanceThreshold(innerHotShare);
    const std::uint64_t k = rng_.next53();
    if (k < streamCut_) {
        lastShared_ = false;
        return streamPtr_++;
    }
    // Both the hot and the mid draw first toss the shared coin, when
    // the application has a shared region.
    lastShared_ = shared_.fraction > 0.0 && rng_.chanceAt(sharedCut_);
    const WorkingSet *set;
    std::uint64_t pos;
    if (k < hotCut_) {
        // Reuse over the hot set, concentrated on the inner tier.
        set = lastShared_ ? &shared_.hot : &hot_;
        const std::uint64_t inner = lastShared_ ? sharedInner_ : hotInner_;
        pos = rng_.below(rng_.chanceAt(innerCut) ? inner : set->lines());
    } else {
        // The mid set is *swept* cyclically: real programs walk their
        // large working sets in passes, so the L2-resident window
        // stays small while the full set cycles through the L3.
        set = lastShared_ ? &shared_.mid : &mid_;
        std::uint64_t &cursor = lastShared_ ? sharedMidPos_ : midPos_;
        pos = cursor;
        // Branchy wrap instead of a modulo. beginEpoch wraps the
        // private cursor when mid_ shrinks; nothing wraps the shared
        // one when shared_.mid shrinks, so it can read one line past
        // the set before it wraps here.
        if (++cursor >= set->lines())
            cursor = 0;
    }
    return set->lineAt(pos);
}

inline MemAccess
CoreRefGenerator::next()
{
    // Write rates of private and of address-space-shared data.
    // Shared working sets are read-mostly in real multithreaded
    // programs; uniform write rates would make shared lines
    // ping-pong under write-invalidate and erase the ACFV sharing
    // evidence the condition-(ii) merge test depends on.
    constexpr double writeFraction = 0.25;
    constexpr double sharedWriteFraction = 0.04;
    constexpr std::uint64_t writeCut = Rng::chanceThreshold(writeFraction);
    constexpr std::uint64_t sharedWriteCut =
        Rng::chanceThreshold(sharedWriteFraction);
    Addr line;
    bool shared;
    if (rng_.chanceAt(recentCut_)) {
        const auto slot = rng_.below(ring_.size());
        line = ring_[slot];
        shared = (ringShared_ >> slot) & 1;
    } else {
        line = drawLine();
        shared = lastShared_;
        ring_[ringNext_] = line;
        const std::uint64_t bit = std::uint64_t{1} << ringNext_;
        ringShared_ = shared ? ringShared_ | bit : ringShared_ & ~bit;
        // Same successor as (ringNext_ + 1) % size without the
        // divide; the cursor is always below the ring size.
        if (++ringNext_ >= ring_.size())
            ringNext_ = 0;
    }
    MemAccess access;
    access.core = core_;
    access.addr = line << 6; // 64-byte lines
    access.type = rng_.chanceAt(shared ? sharedWriteCut : writeCut)
                      ? AccessType::Write
                      : AccessType::Read;
    return access;
}

/**
 * Abstract workload: a set of per-core reference streams plus the
 * epoch protocol. Value-semantic clones support the checkpointing
 * the ideal offline scheme needs.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Next reference of a given core. */
    virtual MemAccess next(CoreId core) = 0;

    /** Advance all streams to a new epoch. */
    virtual void beginEpoch(EpochId epoch) = 0;

    /** All cores share one address space (multithreaded). */
    virtual bool sharedAddressSpace() const = 0;

    /** Number of cores with active streams. */
    virtual std::uint32_t numCores() const = 0;

    /** Deep copy (checkpointing). */
    virtual std::unique_ptr<Workload> clone() const = 0;

    /** Display name. */
    virtual std::string name() const = 0;

    /**
     * Serialize/restore the workload cursor (PRNG streams, working
     * sets, sweep positions). The defaults throw CkptError so a
     * workload type without checkpoint support fails typed instead
     * of resuming from a silently wrong position.
     */
    virtual void
    saveState(CkptWriter &w) const
    {
        (void)w;
        throw CkptError("workload '" + name() +
                        "' does not support checkpoint/restore");
    }

    virtual void
    loadState(CkptReader &r)
    {
        (void)r;
        throw CkptError("workload '" + name() +
                        "' does not support checkpoint/restore");
    }
};

/**
 * Multiprogrammed workload: 16 independent single-threaded
 * applications (a Table 5 mix), disjoint address spaces.
 */
class MixWorkload : public Workload
{
  public:
    MixWorkload(const MixSpec &spec, const GeneratorParams &params,
                std::uint64_t seed);

    MemAccess next(CoreId core) override;
    void beginEpoch(EpochId epoch) override;
    bool sharedAddressSpace() const override { return false; }
    std::uint32_t numCores() const override;
    std::unique_ptr<Workload> clone() const override;
    std::string name() const override { return name_; }
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Generator of one core (characterization). */
    CoreRefGenerator &core(CoreId core);

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    std::string name_; // ckpt: derived(MixWorkload)
    std::vector<CoreRefGenerator> gens_;
};

/**
 * Multithreaded workload: one PARSEC application with one thread
 * per core, sharing an address region.
 */
class MultithreadedWorkload : public Workload
{
  public:
    MultithreadedWorkload(const BenchmarkProfile &profile,
                          std::uint32_t num_threads,
                          const GeneratorParams &params,
                          std::uint64_t seed);

    MemAccess next(CoreId core) override;
    void beginEpoch(EpochId epoch) override;
    bool sharedAddressSpace() const override { return true; }
    std::uint32_t numCores() const override;
    std::unique_ptr<Workload> clone() const override;
    std::string name() const override { return profile_.name; }
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Generator of one thread (characterization). */
    CoreRefGenerator &thread(CoreId core);

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    void refreshSharedRegion(EpochId epoch);

    BenchmarkProfile profile_; // ckpt: derived(MultithreadedWorkload)
    GeneratorParams params_;   // ckpt: derived(MultithreadedWorkload)
    Rng appRng_;
    SharedRegionSpec shared_;
    std::vector<CoreRefGenerator> gens_;
};

/**
 * Single-application workload on one core (characterization runs
 * and the Figure 5 experiment).
 */
class SoloWorkload : public Workload
{
  public:
    SoloWorkload(const BenchmarkProfile &profile,
                 const GeneratorParams &params, std::uint64_t seed);

    MemAccess next(CoreId core) override;
    void beginEpoch(EpochId epoch) override;
    bool sharedAddressSpace() const override { return false; }
    std::uint32_t numCores() const override { return 1; }
    std::unique_ptr<Workload> clone() const override;
    std::string name() const override { return gen_.profile().name; }
    void saveState(CkptWriter &w) const override { gen_.saveState(w); }
    void loadState(CkptReader &r) override { gen_.loadState(r); }

    CoreRefGenerator &generator() { return gen_; }

  private:
    CoreRefGenerator gen_;
};

} // namespace morphcache

#endif // MORPHCACHE_WORKLOAD_GENERATOR_HH
