/**
 * @file
 * Line storage for every slice of one cache level, and the slice
 * view MorphCache merges and splits.
 *
 * A SliceStore holds all physical slices of a level (the 16 L1s,
 * the L2 slices or the L3 slices) set-major: tags, stamps and a
 * one-byte fingerprint per way are laid out [set][slice][way], and
 * one 32-byte row record per (set, slice) holds the valid, dirty and
 * reused words and the tree-PLRU bits, laid out [set][slice]. The
 * fingerprints of one set over a run of slices are therefore one
 * contiguous byte run, which the SSE2 fingerprint matcher scans 16
 * bytes per compare, and a fill, touch or eviction writes one row.
 * A CacheSlice is a value view (store, slice id) made on demand; it
 * owns nothing.
 */

#ifndef MORPHCACHE_MEM_SLICE_HH
#define MORPHCACHE_MEM_SLICE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <emmintrin.h>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "mem/line.hh"
#include "mem/replacement.hh"

// SSE2 is part of the x86-64 baseline, so every x86-64 compiler
// defines this without a flag.
#ifndef __SSE2__
#error "the fingerprint matcher needs SSE2 (an x86-64 target)"
#endif

namespace morphcache {

template <typename Store> class SliceView;
class SliceStore;

/** Read-write view of one slice. */
using CacheSlice = SliceView<SliceStore>;
/** Read-only view of one slice. */
using ConstCacheSlice = SliceView<const SliceStore>;

/**
 * The lines of every physical slice of one level.
 *
 * All slices share one geometry (merging adds ways, never sets), so
 * slice `s`'s ways of set `set` start at `(set * numSlices + s) *
 * assoc` in the per-way arrays, and its row record sits at
 * `set * numSlices + s`. A line still lives in exactly one slice's
 * ways, so splitting a merged group stays a change of view.
 *
 * Fingerprints are derived state: a byte hashed from each way's
 * line address, written by every fill and rebuilt by loadState(),
 * never serialized. The matcher compares 16 of them with the line's
 * per SSE2 compare; a probe then compares full line addresses only
 * on valid candidates.
 *
 * The checkpoint encoding is the record-per-line one of a slice
 * that owns its arrays: saveState() walks one slice's sets in
 * order and emits (lineAddr, flags, stamp) per way, then its PLRU
 * trees, one word per set. The PLRU trees stay per slice.
 */
class SliceStore
{
  public:
    /**
     * @param num_slices Slices in the level.
     * @param geom Geometry of each slice (validated; assoc <= 64).
     * @param policy Replacement policy used for intra-slice victims.
     */
    SliceStore(std::uint32_t num_slices, const CacheGeometry &geom,
               ReplPolicy policy = ReplPolicy::LRU);

    /** View of slice `id` (unchecked: hot paths build views). */
    CacheSlice slice(SliceId id);
    ConstCacheSlice slice(SliceId id) const;

    /**
     * Serialize one slice: a line count, then (u64 lineAddr,
     * u8 flags, u64 stamp) per way in set-major order, then the
     * slice's PLRU trees.
     */
    void saveState(CkptWriter &w, SliceId slice) const;
    /** Restore one slice and rebuild its fingerprints. */
    void loadState(CkptReader &r, SliceId slice);

    /** Fingerprint byte of a line address. */
    static std::uint8_t
    fingerprint(Addr line_addr)
    {
        // The top byte of a multiplicative hash depends on every
        // address bit, including the tag bits above the set index.
        return static_cast<std::uint8_t>(
            (line_addr * 0x9e3779b97f4a7c15ULL) >> 56);
    }

    /**
     * The fingerprint matcher: bit k of the result is set iff a way
     * of slice `lo + k` in `line_addr`'s set, valid or not, holds
     * the line's fingerprint, for k < span. Every slice holding the
     * line is in the mask; a slice in it may not hold the line.
     * Requires 1 <= span <= 64 and lo + span <= the slice count.
     *
     * The run's fingerprints are span x assoc contiguous bytes, so
     * one 16-byte compare covers two 8-way slices. Window bytes past
     * the run are masked off; the last window reads at most 15 bytes
     * past it, into the next row or the array's padding.
     */
    std::uint64_t
    matchSlices(Addr line_addr, SliceId lo, std::uint32_t span) const
    {
        const std::size_t row = (line_addr & setMask_) * numSlices_ + lo;
        const std::uint8_t *fps = fingerprints_.data() + row * assoc_;
        const std::uint32_t bytes = span * assoc_;
        const __m128i fp = pattern(line_addr);
        std::uint64_t slices = 0;
        for (std::uint32_t at = 0; at < bytes; at += 64) {
            // Up to four windows' byte masks in one word, then the
            // slice of each (rare) matching byte.
            const std::uint32_t n = std::min<std::uint32_t>(bytes - at, 64);
            std::uint64_t m = 0;
            for (std::uint32_t w = 0; w < n; w += 16)
                m |= std::uint64_t{matchWindow(fps + at + w, fp)} << w;
            if (n < 64)
                m &= (std::uint64_t{1} << n) - 1;
            while (m != 0) {
                const auto byte =
                    at + static_cast<std::uint32_t>(std::countr_zero(m));
                slices |= std::uint64_t{1} << sliceOfByte(byte);
                m &= m - 1;
            }
        }
        return slices;
    }

    /**
     * Calls visit(slice) for each slice of [lo, lo + span) in
     * matchSlices()' mask, in ascending order, one 64-slice window
     * at a time, until a call returns true. A one-slice run is
     * visited unmatched: its own probe is the cheaper test.
     * @return Whether a call returned true.
     */
    template <typename Visit>
    bool
    forEachCandidate(Addr line_addr, SliceId lo, std::uint32_t span,
                     Visit &&visit) const
    {
        if (span == 1)
            return visit(lo);
        for (std::uint32_t first = 0; first < span; first += 64) {
            std::uint64_t m = matchSlices(
                line_addr, static_cast<SliceId>(lo + first),
                std::min<std::uint32_t>(span - first, 64));
            while (m != 0) {
                const auto slice = static_cast<SliceId>(
                    lo + first +
                    static_cast<std::uint32_t>(std::countr_zero(m)));
                if (visit(slice))
                    return true;
                m &= m - 1;
            }
        }
        return false;
    }

  private:
    template <typename Store> friend class SliceView;

    /** A line's fingerprint in all 16 bytes. */
    static __m128i
    pattern(Addr line_addr)
    {
        return _mm_set1_epi8(static_cast<char>(fingerprint(line_addr)));
    }

    /**
     * The one fingerprint compare: bit k set iff byte k of the 16 at
     * `bytes` (an unaligned load) equals the pattern's.
     */
    static std::uint32_t
    matchWindow(const std::uint8_t *bytes, __m128i fp)
    {
        const __m128i window =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(bytes));
        return static_cast<std::uint32_t>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(window, fp)));
    }

    /** `byte / assoc_` for a byte of a run (at most 64 x 64 bytes). */
    std::uint32_t
    sliceOfByte(std::uint32_t byte) const
    {
        return static_cast<std::uint32_t>(
            (std::uint64_t{byte} * assocReciprocal_) >> 32);
    }

    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self, SliceId slice);

    ReplPolicy policy_;         // ckpt: derived(SliceStore)
    std::uint32_t numSlices_;   // ckpt: derived(SliceStore)
    /** Cached geometry: ways per set. */
    std::uint32_t assoc_;
    /** Cached geometry: set count (power of two). */
    std::uint64_t numSets_;
    /** numSets_ - 1 (set-index mask; replaces the modulo). */
    std::uint64_t setMask_;     // ckpt: derived(SliceStore)
    /** Low `assoc_` bits set (valid-word scan mask). */
    std::uint64_t waysMask_;    // ckpt: derived(SliceStore)
    /**
     * ceil(2^32 / assoc_): (b x this) >> 32 is exactly b / assoc_
     * while b x assoc_ < 2^32, since the rounding then adds less than
     * 1 / assoc_ to the quotient.
     */
    std::uint64_t assocReciprocal_; // ckpt: derived(SliceStore)
    /** Stored block numbers, [set][slice][way]. */
    std::vector<Addr> tags_;
    /** Recency stamps, [set][slice][way]. */
    std::vector<std::uint64_t> stamps_;
    /**
     * Fingerprint of each way's stored address, [set][slice][way],
     * plus 15 bytes of padding: the matcher reads whole 16-byte
     * windows, so a run whose byte count is not a multiple of 16
     * reads up to 15 bytes past it, into the next row or into the
     * padding.
     */
    // ckpt: derived(SliceStore::loadState)
    std::vector<std::uint8_t> fingerprints_;
    /**
     * What a fill, touch or eviction of a (set, slice) updates
     * besides the way's tag and stamp: one bit per way of each flag
     * word, and the set's tree-PLRU direction bits. Not over-aligned:
     * glibc serves over-aligned storage with memalign, whose split-off
     * fragments grew simbench's peak RSS by a quarter in a 20 s run,
     * while 16-byte-aligned rows read as fast (three in four lie in
     * one host line).
     */
    struct Row
    {
        std::uint64_t valid = 0;
        std::uint64_t dirty = 0;
        std::uint64_t reused = 0;
        std::uint64_t plru = 0;
    };
    static_assert(sizeof(Row) == 32);
    /** One row record per (set, slice), [set][slice]. */
    std::vector<Row> rows_;
    /**
     * The tree-PLRU rule of the slice geometry; under LRU a rule with
     * no nodes, so touches leave the row's PLRU word alone. Last: its
     * per-way table would part the hot fields above.
     */
    PlruRule plru_; // ckpt: derived(SliceStore)
};

/**
 * One physical slice of cache (e.g. one 256 KB 8-way L2 slice),
 * seen through its level's store.
 *
 * A slice only stores state; *policy* over one or more slices
 * (group lookup, cross-slice victim choice, inclusion) lives in
 * CacheLevelModel. The view is two words and is made on demand, so
 * copying the object that owns the store (a Hierarchy copied by the
 * ideal offline oracle) never leaves a view pointing at the
 * original. `Store` is SliceStore or const SliceStore; mutators
 * compile only for the former.
 */
template <typename Store>
class SliceView
{
  public:
    SliceView(Store &store, SliceId id) : store_(&store), id_(id) {}

    /** Ways per set (cached from the geometry). */
    std::uint32_t assoc() const { return store_->assoc_; }

    /** Sets in the slice (cached from the geometry). */
    std::uint64_t numSets() const { return store_->numSets_; }

    /** Set index this slice uses for a line address. */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return line_addr & store_->setMask_;
    }

    /**
     * Look up a line in this slice: the first valid way holding it,
     * in ascending way order. This is the matcher's one-slice case:
     * the slice's ways are matched 16 per window compare and masked
     * with the valid word, and only candidates have their full line
     * address compared.
     * @return The way holding it, or assoc() on a miss (a plain
     *         integer, so the caller's loop keeps it in a register).
     *
     * Forced inline: out of line, GCC 12 calls it once per member
     * from the level's group loops, recomputing the fingerprint
     * pattern and reloading the store's array pointers each time.
     */
    [[gnu::always_inline]] std::uint32_t
    probe(Addr line_addr) const
    {
        const Store &s = *store_;
        const std::size_t r = row(line_addr & s.setMask_);
        const std::uint64_t valid = s.rows_[r].valid;
        if (valid == 0)
            return s.assoc_;
        const std::size_t base = r * s.assoc_;
        const std::uint8_t *fps = s.fingerprints_.data() + base;
        const Addr *tags = s.tags_.data() + base;
        const __m128i fp = SliceStore::pattern(line_addr);
        for (std::uint32_t first = 0; first < s.assoc_; first += 16) {
            std::uint64_t m =
                SliceStore::matchWindow(fps + first, fp) & (valid >> first);
            while (m != 0) {
                const std::uint32_t way =
                    first + static_cast<std::uint32_t>(std::countr_zero(m));
                if (tags[way] == line_addr)
                    return way;
                m &= m - 1;
            }
        }
        return s.assoc_;
    }

    /** Whether the slice holds the line. */
    bool contains(Addr line_addr) const
    {
        return probe(line_addr) != assoc();
    }

    // --- Per-way field access (unchecked hot-path accessors) -----

    /** Block number stored at (set, way); meaningful when valid. */
    Addr
    lineAddrAt(std::uint64_t set, std::uint32_t way) const
    {
        return store_->tags_[index(set, way)];
    }

    /** Recency stamp at (set, way). */
    std::uint64_t
    stampAt(std::uint64_t set, std::uint32_t way) const
    {
        return store_->stamps_[index(set, way)];
    }

    /** Overwrite the recency stamp at (set, way). */
    void
    setStampAt(std::uint64_t set, std::uint32_t way,
               std::uint64_t stamp) const
    {
        store_->stamps_[index(set, way)] = stamp;
    }

    /** Valid bit at (set, way). */
    bool
    validAt(std::uint64_t set, std::uint32_t way) const
    {
        return (rowOf(set).valid >> way) & 1;
    }

    /** Dirty bit at (set, way). */
    bool
    dirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        return (rowOf(set).dirty >> way) & 1;
    }

    /** Mark (set, way) dirty (writeback from above). */
    void
    setDirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        rowOf(set).dirty |= std::uint64_t{1} << way;
    }

    /** Word of valid bits for a set (bit k = way k). */
    std::uint64_t validMask(std::uint64_t set) const
    {
        return rowOf(set).valid;
    }

    /**
     * Probe-and-mark-dirty (writeback absorption): probe() followed
     * by setDirtyAt() on a hit.
     * @return True iff the line was present.
     */
    bool
    markDirtyIfPresent(Addr line_addr) const
    {
        const std::uint32_t way = probe(line_addr);
        if (way == assoc())
            return false;
        setDirtyAt(setIndex(line_addr), way);
        return true;
    }

    /**
     * Lowest invalid way of a set, or assoc() when the set is full
     * (one complement-and-scan over the valid word).
     */
    std::uint32_t
    firstInvalidWay(std::uint64_t set) const
    {
        const std::uint64_t inv = ~rowOf(set).valid & store_->waysMask_;
        if (inv == 0)
            return store_->assoc_;
        return static_cast<std::uint32_t>(std::countr_zero(inv));
    }

    /**
     * Record a hit on (set, way): bumps the recency stamp and the
     * PLRU tree (a no-op rule under LRU).
     */
    void
    touch(std::uint64_t set, std::uint32_t way,
          std::uint64_t stamp) const
    {
        store_->stamps_[index(set, way)] = stamp;
        auto &r = rowOf(set);
        r.reused |= std::uint64_t{1} << way;
        r.plru = store_->plru_.touch(r.plru, way);
    }

    /**
     * Way this slice would evict from `set`, preferring invalid
     * ways, then the policy's victim.
     */
    std::uint32_t
    victimWay(std::uint64_t set) const
    {
        const std::uint32_t inv = firstInvalidWay(set);
        if (inv != store_->assoc_)
            return inv;
        if (store_->policy_ == ReplPolicy::TreePLRU)
            return store_->plru_.victim(rowOf(set).plru);

        const std::uint64_t *stamps = &store_->stamps_[index(set, 0)];
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamps[0];
        for (std::uint32_t way = 1; way < store_->assoc_; ++way) {
            if (stamps[way] < oldest) {
                oldest = stamps[way];
                victim = way;
            }
        }
        return victim;
    }

    /**
     * Install `line_addr` into (set, way).
     * @return What was displaced.
     */
    Eviction
    fill(std::uint64_t set, std::uint32_t way, Addr line_addr,
         bool dirty, std::uint64_t stamp) const
    {
        Store &s = *store_;
        const std::size_t idx = index(set, way);
        auto &r = rowOf(set);
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        if (r.valid & bit)
            evicted = record(r, idx, bit);
        s.tags_[idx] = line_addr;
        s.fingerprints_[idx] = SliceStore::fingerprint(line_addr);
        s.stamps_[idx] = stamp;
        r.valid |= bit;
        r.dirty = (r.dirty & ~bit) | (std::uint64_t{dirty} << way);
        r.reused &= ~bit;
        r.plru = s.plru_.touch(r.plru, way);
        return evicted;
    }

    /**
     * Invalidate the (valid) line at a known location — the
     * probe-free form of invalidate() for callers that already
     * resolved the line's way (e.g. the level's lazy invalidation
     * of a merge duplicate it just probed). Identical state
     * effects: valid and dirty clear, the address, stamp, and
     * reused bit stay.
     */
    Eviction
    invalidateAt(std::uint64_t set, std::uint32_t way) const
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        auto &r = rowOf(set);
        MC_ASSERT(r.valid & bit);
        const Eviction evicted = record(r, index(set, way), bit);
        r.valid &= ~bit;
        r.dirty &= ~bit;
        return evicted;
    }

    /**
     * Invalidate a line if present. Only the valid and dirty bits
     * clear; the stored address, stamp, and reused bit stay (the
     * checkpoint encoding serializes them regardless of validity).
     * @return The eviction record (valid=false if it wasn't here).
     */
    Eviction
    invalidate(Addr line_addr) const
    {
        const std::uint32_t way = probe(line_addr);
        if (way == assoc())
            return {};
        return invalidateAt(setIndex(line_addr), way);
    }

    /** Number of valid lines currently resident. */
    std::uint64_t
    validLineCount() const
    {
        std::uint64_t count = 0;
        for (std::uint64_t set = 0; set < store_->numSets_; ++set)
            count += static_cast<std::uint64_t>(
                std::popcount(rowOf(set).valid));
        return count;
    }

  private:
    /** Index of this slice's row record for `set`. */
    std::size_t
    row(std::uint64_t set) const
    {
        return set * store_->numSlices_ + id_;
    }

    /** This slice's row record for `set` (const for a const store). */
    auto &
    rowOf(std::uint64_t set) const
    {
        return store_->rows_[row(set)];
    }

    /** Index of (set, way) in the per-way arrays. */
    std::size_t
    index(std::uint64_t set, std::uint32_t way) const
    {
        return row(set) * store_->assoc_ + way;
    }

    /**
     * The eviction record of a valid way: its row record, its index
     * in the per-way arrays and its bit.
     */
    Eviction
    record(const SliceStore::Row &r, std::size_t idx,
           std::uint64_t bit) const
    {
        Eviction evicted;
        evicted.valid = true;
        evicted.lineAddr = store_->tags_[idx];
        evicted.dirty = (r.dirty & bit) != 0;
        evicted.reused = (r.reused & bit) != 0;
        return evicted;
    }

    Store *store_;
    SliceId id_;
};

inline CacheSlice
SliceStore::slice(SliceId id)
{
    return {*this, id};
}

inline ConstCacheSlice
SliceStore::slice(SliceId id) const
{
    return {*this, id};
}

} // namespace morphcache

#endif // MORPHCACHE_MEM_SLICE_HH
