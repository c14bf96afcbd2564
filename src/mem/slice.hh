/**
 * @file
 * A physical cache slice: the unit MorphCache merges and splits.
 */

#ifndef MORPHCACHE_MEM_SLICE_HH
#define MORPHCACHE_MEM_SLICE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "mem/line.hh"
#include "mem/replacement.hh"

namespace morphcache {

/**
 * One physical slice of cache (e.g. one 256 KB 8-way L2 slice).
 *
 * A slice only stores state; *policy* over one or more slices (group
 * lookup, cross-slice victim choice, inclusion) is implemented by
 * SliceGroup in the hierarchy library. This split is what makes
 * splitting a merged group O(1): every line physically lives in
 * exactly one slice's ways at all times, so un-merging is just a
 * change of view.
 *
 * Storage is struct-of-arrays: line addresses and recency stamps
 * live in flat per-way arrays (`set * assoc + way`), while the
 * single-bit flags (valid/dirty/reused) pack into one 64-bit word
 * per set. probe() and victimWay() then reduce to a word load plus
 * a bit scan instead of striding 40-byte records, and the flag
 * words bound `assoc` at 64 (asserted at construction). The
 * checkpoint encoding is unchanged from the record-per-line layout:
 * saveState() walks set-major way order emitting the same
 * (lineAddr, flags, stamp) triples byte for byte.
 */
class CacheSlice
{
  public:
    /**
     * @param id Dense identifier of this slice within its level.
     * @param geom Slice geometry (validated; assoc <= 64).
     * @param policy Replacement policy used for intra-slice victims.
     */
    CacheSlice(SliceId id, const CacheGeometry &geom,
               ReplPolicy policy = ReplPolicy::LRU);

    /** Slice identifier. */
    SliceId id() const { return id_; }

    /** Slice geometry. */
    const CacheGeometry &geometry() const { return geom_; }

    /** Replacement policy in effect. */
    ReplPolicy policy() const { return policy_; }

    /** Ways per set (cached from the geometry). */
    std::uint32_t assoc() const { return assoc_; }

    /** Sets in the slice (cached from the geometry). */
    std::uint64_t numSets() const { return numSets_; }

    /**
     * Look up a line in this slice: scan the set's valid ways in
     * ascending way order (first match wins, mirroring the original
     * record scan) comparing stored line addresses.
     * @return The way holding it, or std::nullopt on miss.
     */
    std::optional<std::uint32_t>
    probe(Addr line_addr) const
    {
        const std::uint64_t set = line_addr & setMask_;
        const std::uint64_t base = set * assoc_;
        std::uint64_t m = validBits_[set];
        while (m != 0) {
            const auto way =
                static_cast<std::uint32_t>(std::countr_zero(m));
            if (tags_[base + way] == line_addr)
                return way;
            m &= m - 1;
        }
        return std::nullopt;
    }

    // --- Per-way field access (unchecked hot-path accessors) -----

    /** Block number stored at (set, way); meaningful when valid. */
    Addr
    lineAddrAt(std::uint64_t set, std::uint32_t way) const
    {
        return tags_[set * assoc_ + way];
    }

    /** Recency stamp at (set, way). */
    std::uint64_t
    stampAt(std::uint64_t set, std::uint32_t way) const
    {
        return stamps_[set * assoc_ + way];
    }

    /** Overwrite the recency stamp at (set, way). */
    void
    setStampAt(std::uint64_t set, std::uint32_t way,
               std::uint64_t stamp)
    {
        stamps_[set * assoc_ + way] = stamp;
    }

    /** Valid bit at (set, way). */
    bool
    validAt(std::uint64_t set, std::uint32_t way) const
    {
        return (validBits_[set] >> way) & 1;
    }

    /** Dirty bit at (set, way). */
    bool
    dirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        return (dirtyBits_[set] >> way) & 1;
    }

    /** Reused bit at (set, way). */
    bool
    reusedAt(std::uint64_t set, std::uint32_t way) const
    {
        return (reusedBits_[set] >> way) & 1;
    }

    /** Mark (set, way) dirty (writeback from above). */
    void
    setDirtyAt(std::uint64_t set, std::uint32_t way)
    {
        dirtyBits_[set] |= std::uint64_t{1} << way;
    }

    /** Word of valid bits for a set (bit k = way k). */
    std::uint64_t validMask(std::uint64_t set) const
    {
        return validBits_[set];
    }

    /**
     * Probe-and-mark-dirty in one walk (writeback absorption):
     * equivalent to probe() followed by setDirtyAt() on a hit.
     * @return True iff the line was present.
     */
    bool
    markDirtyIfPresent(Addr line_addr)
    {
        const std::uint64_t set = line_addr & setMask_;
        const std::uint64_t base = set * assoc_;
        std::uint64_t m = validBits_[set];
        while (m != 0) {
            const std::uint64_t bit = m & (~m + 1);
            const auto way =
                static_cast<std::uint32_t>(std::countr_zero(m));
            if (tags_[base + way] == line_addr) {
                dirtyBits_[set] |= bit;
                return true;
            }
            m &= m - 1;
        }
        return false;
    }

    /**
     * Lowest invalid way of a set, or assoc() when the set is full
     * (one complement-and-scan over the valid word).
     */
    std::uint32_t
    firstInvalidWay(std::uint64_t set) const
    {
        const std::uint64_t inv = ~validBits_[set] & waysMask_;
        if (inv == 0)
            return assoc_;
        return static_cast<std::uint32_t>(std::countr_zero(inv));
    }

    /**
     * Record a hit on (set, way): bumps the recency stamp and the
     * PLRU tree.
     */
    void
    touch(std::uint64_t set, std::uint32_t way, std::uint64_t stamp)
    {
        stamps_[set * assoc_ + way] = stamp;
        reusedBits_[set] |= std::uint64_t{1} << way;
        if (policy_ == ReplPolicy::TreePLRU)
            plru_.tree(set).touch(way);
    }

    /**
     * Way this slice would evict from `set`, preferring invalid
     * ways, then the policy's victim.
     */
    std::uint32_t
    victimWay(std::uint64_t set) const
    {
        const std::uint64_t inv = ~validBits_[set] & waysMask_;
        if (inv != 0)
            return static_cast<std::uint32_t>(std::countr_zero(inv));
        if (policy_ == ReplPolicy::TreePLRU)
            return plru_.tree(set).victim();

        const std::uint64_t base = set * assoc_;
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamps_[base];
        for (std::uint32_t way = 1; way < assoc_; ++way) {
            if (stamps_[base + way] < oldest) {
                oldest = stamps_[base + way];
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
         bool dirty, std::uint64_t stamp)
    {
        const std::uint64_t idx = set * assoc_ + way;
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        if (validBits_[set] & bit) {
            evicted.valid = true;
            evicted.lineAddr = tags_[idx];
            evicted.dirty = (dirtyBits_[set] & bit) != 0;
            evicted.reused = (reusedBits_[set] & bit) != 0;
        }
        tags_[idx] = line_addr;
        stamps_[idx] = stamp;
        validBits_[set] |= bit;
        if (dirty)
            dirtyBits_[set] |= bit;
        else
            dirtyBits_[set] &= ~bit;
        reusedBits_[set] &= ~bit;
        if (policy_ == ReplPolicy::TreePLRU)
            plru_.tree(set).touch(way);
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
    invalidateAt(std::uint64_t set, std::uint32_t way)
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        MC_ASSERT(validBits_[set] & bit);
        Eviction evicted;
        evicted.valid = true;
        evicted.lineAddr = tags_[set * assoc_ + way];
        evicted.dirty = (dirtyBits_[set] & bit) != 0;
        evicted.reused = (reusedBits_[set] & bit) != 0;
        validBits_[set] &= ~bit;
        dirtyBits_[set] &= ~bit;
        return evicted;
    }

    /**
     * Invalidate a line if present. Only the valid and dirty bits
     * clear; the stored address, stamp, and reused bit stay (the
     * record layout behaved the same way, and the checkpoint
     * encoding serializes them regardless of validity).
     * @return The eviction record (valid=false if it wasn't here).
     */
    Eviction
    invalidate(Addr line_addr)
    {
        Eviction evicted;
        const auto way = probe(line_addr);
        if (!way)
            return evicted;
        const std::uint64_t set = line_addr & setMask_;
        const std::uint64_t bit = std::uint64_t{1} << *way;
        evicted.valid = true;
        evicted.lineAddr = tags_[set * assoc_ + *way];
        evicted.dirty = (dirtyBits_[set] & bit) != 0;
        evicted.reused = (reusedBits_[set] & bit) != 0;
        validBits_[set] &= ~bit;
        dirtyBits_[set] &= ~bit;
        return evicted;
    }

    /** Invalidate every line in the slice. */
    void invalidateAll();

    /** Number of valid lines currently resident. */
    std::uint64_t validLineCount() const;

    /** Set index this slice uses for a line address. */
    std::uint64_t
    setIndex(Addr line_addr) const
    {
        return line_addr & setMask_;
    }

    /**
     * Serialize all line + replacement state. The byte stream is
     * the original record-per-line encoding: a line count, then
     * (u64 lineAddr, u8 flags, u64 stamp) per way in set-major
     * order, then the PLRU trees.
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    SliceId id_;         // ckpt: derived(CacheSlice)
    CacheGeometry geom_; // ckpt: derived(CacheSlice)
    ReplPolicy policy_;  // ckpt: derived(CacheSlice)
    /** Cached geometry: ways per set. */
    std::uint32_t assoc_;
    /** Cached geometry: set count (power of two). */
    std::uint64_t numSets_;
    /** numSets_ - 1 (set-index mask; replaces the modulo). */
    std::uint64_t setMask_; // ckpt: derived(CacheSlice)
    /** Low `assoc_` bits set (valid-word scan mask). */
    std::uint64_t waysMask_; // ckpt: derived(CacheSlice)
    /** Stored block numbers, indexed set * assoc + way. */
    std::vector<Addr> tags_;
    /** Recency stamps, indexed set * assoc + way. */
    std::vector<std::uint64_t> stamps_;
    /** One valid bit per way, one word per set. */
    std::vector<std::uint64_t> validBits_;
    /** One dirty bit per way, one word per set. */
    std::vector<std::uint64_t> dirtyBits_;
    /** One reused bit per way, one word per set. */
    std::vector<std::uint64_t> reusedBits_;
    PlruState plru_;
};

} // namespace morphcache

#endif // MORPHCACHE_MEM_SLICE_HH
