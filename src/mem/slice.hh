/**
 * @file
 * Line storage for every slice of one cache level, and the slice
 * view MorphCache merges and splits.
 *
 * A SliceStore holds all physical slices of a level (the 16 L1s,
 * the L2 slices or the L3 slices) set-major: tags, stamps and a
 * one-byte fingerprint per way are laid out [set][slice][way], the
 * valid, dirty and reused words [set][slice]. A group probe of one
 * set therefore reads one contiguous run of fingerprints and one of
 * valid words, whichever slices the group holds. A CacheSlice is a
 * value view (store, slice id) made on demand; it owns nothing.
 */

#ifndef MORPHCACHE_MEM_SLICE_HH
#define MORPHCACHE_MEM_SLICE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "mem/line.hh"
#include "mem/replacement.hh"

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
 * assoc` in the per-way arrays, and its flag words sit at
 * `set * numSlices + s`. A line still lives in exactly one slice's
 * ways, so splitting a merged group stays a change of view.
 *
 * Fingerprints are derived state: a byte hashed from each way's
 * line address, written by every fill and rebuilt by loadState(),
 * never serialized. A probe matches eight of them per 64-bit word
 * and compares full line addresses only on valid candidates.
 *
 * The checkpoint encoding is the record-per-line one of a slice
 * that owns its arrays: saveState() walks one slice's sets in
 * order and emits (lineAddr, flags, stamp) per way, then its PLRU
 * trees. The PLRU trees stay per slice.
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

  private:
    template <typename Store> friend class SliceView;

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
    /** Stored block numbers, [set][slice][way]. */
    std::vector<Addr> tags_;
    /** Recency stamps, [set][slice][way]. */
    std::vector<std::uint64_t> stamps_;
    /**
     * Fingerprint of each way's stored address, [set][slice][way],
     * plus 7 bytes of padding: a probe reads whole 8-byte words, so
     * a slice whose assoc is not a multiple of 8 reads up to 7 bytes
     * past its ways, into the next slice's or into the padding.
     */
    // ckpt: derived(SliceStore::loadState)
    std::vector<std::uint8_t> fingerprints_;
    /** One valid bit per way, one word per (set, slice). */
    std::vector<std::uint64_t> validBits_;
    /** One dirty bit per way, one word per (set, slice). */
    std::vector<std::uint64_t> dirtyBits_;
    /** One reused bit per way, one word per (set, slice). */
    std::vector<std::uint64_t> reusedBits_;
    /** One PLRU tree per set, per slice. */
    std::vector<PlruState> plru_;
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
     * in ascending way order. Eight fingerprints are matched per
     * word and masked with the valid word; only candidates have
     * their full line address compared.
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
        static_assert(std::endian::native == std::endian::little,
                      "fingerprint byte k must be way k of a word");
        const Store &s = *store_;
        const std::size_t r = row(line_addr & s.setMask_);
        const std::uint64_t valid = s.validBits_[r];
        if (valid == 0)
            return s.assoc_;
        const std::size_t base = r * s.assoc_;
        const std::uint8_t *fps = s.fingerprints_.data() + base;
        const Addr *tags = s.tags_.data() + base;
        const std::uint64_t pattern =
            0x0101010101010101ULL * SliceStore::fingerprint(line_addr);
        for (std::uint32_t first = 0; first < s.assoc_; first += 8) {
            std::uint64_t word;
            std::memcpy(&word, fps + first, sizeof(word));
            std::uint64_t m = equalBytes(word ^ pattern) & (valid >> first);
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
        return (store_->validBits_[row(set)] >> way) & 1;
    }

    /** Dirty bit at (set, way). */
    bool
    dirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        return (store_->dirtyBits_[row(set)] >> way) & 1;
    }

    /** Mark (set, way) dirty (writeback from above). */
    void
    setDirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        store_->dirtyBits_[row(set)] |= std::uint64_t{1} << way;
    }

    /** Word of valid bits for a set (bit k = way k). */
    std::uint64_t validMask(std::uint64_t set) const
    {
        return store_->validBits_[row(set)];
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
        const std::uint64_t inv =
            ~store_->validBits_[row(set)] & store_->waysMask_;
        if (inv == 0)
            return store_->assoc_;
        return static_cast<std::uint32_t>(std::countr_zero(inv));
    }

    /**
     * Record a hit on (set, way): bumps the recency stamp and the
     * PLRU tree.
     */
    void
    touch(std::uint64_t set, std::uint32_t way,
          std::uint64_t stamp) const
    {
        store_->stamps_[index(set, way)] = stamp;
        store_->reusedBits_[row(set)] |= std::uint64_t{1} << way;
        if (store_->policy_ == ReplPolicy::TreePLRU)
            store_->plru_[id_].tree(set).touch(way);
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
            return store_->plru_[id_].tree(set).victim();

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
        const std::size_t r = row(set);
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        if (s.validBits_[r] & bit)
            evicted = record(set, way);
        s.tags_[idx] = line_addr;
        s.fingerprints_[idx] = SliceStore::fingerprint(line_addr);
        s.stamps_[idx] = stamp;
        s.validBits_[r] |= bit;
        if (dirty)
            s.dirtyBits_[r] |= bit;
        else
            s.dirtyBits_[r] &= ~bit;
        s.reusedBits_[r] &= ~bit;
        if (s.policy_ == ReplPolicy::TreePLRU)
            s.plru_[id_].tree(set).touch(way);
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
        const std::size_t r = row(set);
        MC_ASSERT(store_->validBits_[r] & bit);
        const Eviction evicted = record(set, way);
        store_->validBits_[r] &= ~bit;
        store_->dirtyBits_[r] &= ~bit;
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
                std::popcount(store_->validBits_[row(set)]));
        return count;
    }

  private:
    /** Index of this slice's flag words for `set`. */
    std::size_t
    row(std::uint64_t set) const
    {
        return set * store_->numSlices_ + id_;
    }

    /** Index of (set, way) in the per-way arrays. */
    std::size_t
    index(std::uint64_t set, std::uint32_t way) const
    {
        return row(set) * store_->assoc_ + way;
    }

    /** The eviction record of a valid (set, way). */
    Eviction
    record(std::uint64_t set, std::uint32_t way) const
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        evicted.valid = true;
        evicted.lineAddr = store_->tags_[index(set, way)];
        evicted.dirty = (store_->dirtyBits_[row(set)] & bit) != 0;
        evicted.reused = (store_->reusedBits_[row(set)] & bit) != 0;
        return evicted;
    }

    /**
     * Bit k set iff byte k of `x` is zero. Exact: adding 0x7f to
     * each byte's low seven bits cannot carry into the next byte.
     */
    static std::uint64_t
    equalBytes(std::uint64_t x)
    {
        constexpr std::uint64_t low7 = 0x7f7f7f7f7f7f7f7fULL;
        const std::uint64_t zero = ~(((x & low7) + low7) | x | low7);
        // Gather the eight high bits (bit 8k+7 -> bit 56+k).
        return ((zero >> 7) * 0x0102040810204080ULL) >> 56;
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
