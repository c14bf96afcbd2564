/**
 * @file
 * Active Cache Footprint Vectors (paper Section 2.1).
 *
 * An ACFV is a small bit vector approximating the Active Cache
 * Footprint (ACF) of one core in one cache slice: the set of unique
 * lines that core referenced there during the current epoch. Bits
 * are set when a line is referenced/filled and cleared when the
 * line is evicted; all bits are cleared at each reconfiguration
 * interval so stale data does not inflate the estimate.
 *
 * Two properties drive MorphCache (Section 2.1): the population
 * count approximates the active utilization of the slice, and the
 * common 1s between two ACFVs of threads sharing an address space
 * approximate their degree of data sharing.
 */

#ifndef MORPHCACHE_ACF_ACFV_HH
#define MORPHCACHE_ACF_ACFV_HH

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "acf/hash.hh"
#include "common/serial.hh"
#include "common/types.hh"

namespace morphcache {

/** One active-cache-footprint bit vector. */
class Acfv
{
  public:
    /**
     * @param num_bits Vector length (power of two, >= 2).
     * @param kind Tag hash family.
     */
    explicit Acfv(std::uint32_t num_bits = 128,
                  HashKind kind = HashKind::Xor);

    /**
     * Bit index a footprint unit hashes to. Exposed so callers that
     * fan one unit across many same-geometry vectors (the level's
     * eviction bookkeeping walks every core's vector for one slice)
     * can hash once and reuse the index.
     */
    std::uint32_t
    bitIndex(Addr unit) const
    {
        return hashTagLog2(kind_, unit, log2Bits_);
    }

    /** Record a reference/fill of a line. */
    void
    set(Addr line_addr)
    {
        setBitIndex(bitIndex(line_addr));
    }

    /** Record an eviction of a line. */
    void
    clear(Addr line_addr)
    {
        clearBitIndex(bitIndex(line_addr));
    }

    /** Set a bit by precomputed index (see bitIndex()). */
    void
    setBitIndex(std::uint32_t i)
    {
        words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
    }

    /** Clear a bit by precomputed index (see bitIndex()). */
    void
    clearBitIndex(std::uint32_t i)
    {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    /** Epoch-boundary reset: clear every bit. */
    void resetAll();

    /**
     * Invert bit `i` directly (fault injection: a soft error in
     * the footprint-vector storage).
     */
    void flip(std::uint32_t i);

    /** |ACFV|: number of set bits. */
    std::uint32_t popcount() const;

    /** Fraction of set bits (the paper's utilization estimate). */
    double
    utilization() const
    {
        return static_cast<double>(popcount()) /
               static_cast<double>(numBits_);
    }

    /** Bit value at index i (for tests). */
    bool test(std::uint32_t i) const;

    /**
     * Number of common 1s between two vectors of equal geometry —
     * the paper's data-sharing indicator.
     */
    static std::uint32_t commonOnes(const Acfv &a, const Acfv &b);

    /** Raw word storage (for OR-aggregation across vectors). */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Serialize bits; geometry is construction-time and verified. */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("ACFV bit count", self.numBits_);
        ar.expectU64("ACFV hash kind",
                     static_cast<std::uint64_t>(self.kind_));
        ar.fixedVec("ACFV word count", self.words_);
    }

    std::uint32_t numBits_;
    /** exactLog2(numBits_), cached so hot hashing skips the assert. */
    unsigned log2Bits_; // ckpt: derived(Acfv)
    HashKind kind_;
    std::vector<std::uint64_t> words_;
};

/**
 * Oracle ACF estimator: tracks the exact set of unique lines
 * referenced in the current epoch. This is the "one-to-one mapping
 * bit-vector" the paper correlates ACFVs against in Figure 5; it is
 * also reused by the workload characterization harness for Table 4.
 */
class OracleAcf
{
  public:
    /** Record a reference of a line. */
    void set(Addr line_addr);

    /** Record an eviction of a line. */
    void clear(Addr line_addr);

    /** Epoch-boundary reset. */
    void resetAll();

    /** Number of distinct active lines. */
    std::uint64_t size() const { return lines_.size(); }

    /**
     * Serialize the line set as a *sorted* list so the encoding is
     * independent of unordered_set iteration order (checkpoint bytes
     * must be deterministic for the resume≡uninterrupted contract).
     */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        std::vector<std::uint64_t> sorted;
        if constexpr (!Ar::loading) {
            sorted.assign(self.lines_.begin(), self.lines_.end());
            std::sort(sorted.begin(), sorted.end());
        }
        ar.u64Vec(sorted);
        if constexpr (Ar::loading) {
            self.lines_.clear();
            self.lines_.insert(sorted.begin(), sorted.end());
        }
    }

    std::unordered_set<Addr> lines_;
};

} // namespace morphcache

#endif // MORPHCACHE_ACF_ACFV_HH
