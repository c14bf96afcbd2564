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
#include <span>
#include <unordered_set>
#include <vector>

#include "acf/hash.hh"
#include "common/serial.hh"
#include "common/types.hh"

namespace morphcache {

/**
 * The ACFVs of one cache level: one vector per (core, slice), all of
 * one length and hash family, stored as one array of words laid out
 * [slice][word][core]. A footprint unit hashes to the same bit of
 * every core's vector for a slice, so clearing it for every core (an
 * eviction) is one AND over a contiguous run of words, and the OR of
 * a slice's vectors (its aggregate footprint) reads one run per word.
 */
class AcfvBank
{
  public:
    /**
     * @param num_slices Slices with a vector per core.
     * @param num_cores Cores with a vector per slice.
     * @param num_bits Vector length (power of two, >= 2).
     * @param kind Tag hash family.
     */
    AcfvBank(std::uint32_t num_slices, std::uint32_t num_cores,
             std::uint32_t num_bits = 128, HashKind kind = HashKind::Xor);

    /** Words per vector. */
    std::uint32_t numWords() const { return numWords_; }

    /** Record a reference/fill of `unit` by `core` in `slice`. */
    void
    set(CoreId core, SliceId slice, Addr unit)
    {
        const std::uint32_t i = bitIndex(unit);
        words_[at(core, slice, i >> 6)] |= std::uint64_t{1} << (i & 63);
    }

    /** Record an eviction of `unit` from `slice`: every core's bit. */
    void
    clearAllCores(SliceId slice, Addr unit)
    {
        const std::uint32_t i = bitIndex(unit);
        const std::uint64_t keep = ~(std::uint64_t{1} << (i & 63));
        std::uint64_t *run = &words_[at(0, slice, i >> 6)];
        for (std::uint32_t c = 0; c < numCores_; ++c)
            run[c] &= keep;
    }

    /**
     * Invert bit `i` of (core, slice) directly (fault injection: a
     * soft error in the footprint-vector storage).
     */
    void flip(CoreId core, SliceId slice, std::uint32_t i);

    /** Epoch-boundary reset: clear every bit. */
    void resetAll();

    /** Word `w` of (core, slice). */
    std::uint64_t
    word(CoreId core, SliceId slice, std::uint32_t w) const
    {
        return words_[at(core, slice, w)];
    }

    /** Popcount of the OR of every core's vector for one slice. */
    std::uint32_t sliceAcfPopcount(SliceId slice) const;

    /**
     * Utilization of a set of slices: total set bits over total
     * bits of the juxtaposed per-slice vectors (paper Section 2.2).
     */
    double utilization(std::span<const SliceId> slices) const;

    /**
     * Overlap fraction between the aggregate footprints of two
     * slice sets: the common 1s' lift over chance, relative to the
     * smaller footprint. Approximates the degree of data sharing
     * (paper Section 2.1, property ii).
     */
    double overlap(std::span<const SliceId> a,
                   std::span<const SliceId> b) const;

    /** Serialize bits; geometry is construction-time and verified. */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    /**
     * One vector per (slice, core) in that order, as the vectors'
     * own checkpoints: bit count, hash kind, counted words.
     */
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("ACFV bank size",
                     std::uint64_t{self.numSlices_} * self.numCores_);
        for (std::uint32_t s = 0; s < self.numSlices_; ++s) {
            for (std::uint32_t c = 0; c < self.numCores_; ++c) {
                ar.expectU64("ACFV bit count", self.numBits_);
                ar.expectU64("ACFV hash kind",
                             static_cast<std::uint64_t>(self.kind_));
                ar.expectU64("ACFV word count", self.numWords_);
                for (std::uint32_t w = 0; w < self.numWords_; ++w)
                    ar.u64(self.words_[self.at(static_cast<CoreId>(c),
                                               static_cast<SliceId>(s),
                                               w)]);
            }
        }
    }

    /** Bit index a footprint unit hashes to. */
    std::uint32_t
    bitIndex(Addr unit) const
    {
        return hashTagLog2(kind_, unit, log2Bits_);
    }

    /** Index of word `w` of (core, slice). */
    std::size_t
    at(CoreId core, SliceId slice, std::uint32_t w) const
    {
        return (std::size_t{slice} * numWords_ + w) * numCores_ + core;
    }

    /** OR of every core's word `w` over a set of slices. */
    std::uint64_t unionWord(std::span<const SliceId> slices,
                            std::uint32_t w) const;

    std::uint32_t numSlices_;
    std::uint32_t numCores_;
    std::uint32_t numBits_;
    std::uint32_t numWords_;
    /** exactLog2(numBits_), cached so hot hashing skips the assert. */
    unsigned log2Bits_; // ckpt: derived(AcfvBank)
    HashKind kind_;
    /** Every vector's words, [slice][word][core]. */
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
