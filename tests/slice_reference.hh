/**
 * @file
 * Test-only reference for the slice store: the slice-major,
 * struct-of-arrays CacheSlice that each slice owned before the
 * level-wide set-major store replaced it.
 *
 * Every slice keeps its own flat address and stamp arrays
 * (`set * assoc + way`), one valid/dirty/reused word per set, and a
 * PLRU tree per set that walks its path one level at a time;
 * probes compare full line addresses in ascending way order. The
 * lockstep test (store_test.cc) drives it beside a SliceStore view
 * and compares every probe, every victim, every eviction record and
 * the checkpoint bytes, so the store's layout, its fingerprint
 * filter and its tree-PLRU rule are checked against code that has
 * none of them.
 */

#ifndef MORPHCACHE_TESTS_SLICE_REFERENCE_HH
#define MORPHCACHE_TESTS_SLICE_REFERENCE_HH

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"
#include "mem/geometry.hh"
#include "mem/line.hh"
#include "mem/replacement.hh"

namespace morphcache {

/**
 * A binary tree of direction bits over `assoc` ways (a power of two,
 * at most 64), heap-ordered with node 1 the root. 0 means the victim
 * is in the left subtree, 1 the right; an access flips the bits on
 * its path to point away from the accessed way.
 */
class ReferencePlruTree
{
  public:
    explicit ReferencePlruTree(std::uint32_t assoc)
        : levels_(static_cast<std::uint32_t>(std::countr_zero(assoc)))
    {
        MC_ASSERT(assoc >= 1 && assoc <= 64 && std::has_single_bit(assoc));
    }

    void touch(std::uint32_t way)
    {
        std::uint32_t node = 1;
        for (std::uint32_t level = 0; level < levels_; ++level) {
            const std::uint32_t shift = levels_ - 1 - level;
            const std::uint32_t dir = (way >> shift) & 1;
            if (dir)
                bits_ &= ~(1ULL << node); // way is right; victim left
            else
                bits_ |= (1ULL << node);  // way is left; victim right
            node = node * 2 + dir;
        }
    }

    std::uint32_t victim() const
    {
        std::uint32_t node = 1;
        std::uint32_t way = 0;
        for (std::uint32_t level = 0; level < levels_; ++level) {
            const auto dir = static_cast<std::uint32_t>((bits_ >> node) & 1);
            way = (way << 1) | dir;
            node = node * 2 + dir;
        }
        return way;
    }

    std::uint64_t bits() const { return bits_; }

  private:
    std::uint32_t levels_;
    std::uint64_t bits_ = 0;
};

/** One slice with slice-major storage of its own. */
class ReferenceSlice
{
  public:
    ReferenceSlice(const CacheGeometry &geom, ReplPolicy policy)
        : policy_(policy), assoc_(geom.assoc),
          numSets_(geom.numSets()), setMask_(geom.numSets() - 1),
          waysMask_(geom.assoc >= 64
                        ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << geom.assoc) - 1),
          tags_(geom.numLines(), 0), stamps_(geom.numLines(), 0),
          validBits_(geom.numSets(), 0), dirtyBits_(geom.numSets(), 0),
          reusedBits_(geom.numSets(), 0),
          plru_(geom.numSets(),
                ReferencePlruTree(policy == ReplPolicy::TreePLRU
                                      ? geom.assoc
                                      : 1))
    {
        MC_ASSERT(geom.valid() && geom.assoc <= 64);
    }

    std::uint64_t setIndex(Addr line_addr) const
    {
        return line_addr & setMask_;
    }

    /** First valid way holding the line, in ascending way order. */
    std::optional<std::uint32_t>
    probe(Addr line_addr) const
    {
        const std::uint64_t set = line_addr & setMask_;
        std::uint64_t m = validBits_[set];
        while (m != 0) {
            const auto way =
                static_cast<std::uint32_t>(std::countr_zero(m));
            if (tags_[set * assoc_ + way] == line_addr)
                return way;
            m &= m - 1;
        }
        return std::nullopt;
    }

    std::uint64_t stampAt(std::uint64_t set, std::uint32_t way) const
    {
        return stamps_[set * assoc_ + way];
    }

    void setStampAt(std::uint64_t set, std::uint32_t way,
                    std::uint64_t stamp)
    {
        stamps_[set * assoc_ + way] = stamp;
    }

    bool validAt(std::uint64_t set, std::uint32_t way) const
    {
        return (validBits_[set] >> way) & 1;
    }

    bool dirtyAt(std::uint64_t set, std::uint32_t way) const
    {
        return (dirtyBits_[set] >> way) & 1;
    }

    bool markDirtyIfPresent(Addr line_addr)
    {
        const auto way = probe(line_addr);
        if (!way)
            return false;
        dirtyBits_[setIndex(line_addr)] |= std::uint64_t{1} << *way;
        return true;
    }

    std::uint32_t firstInvalidWay(std::uint64_t set) const
    {
        const std::uint64_t inv = ~validBits_[set] & waysMask_;
        return inv == 0 ? assoc_
                        : static_cast<std::uint32_t>(
                              std::countr_zero(inv));
    }

    void touch(std::uint64_t set, std::uint32_t way, std::uint64_t stamp)
    {
        stamps_[set * assoc_ + way] = stamp;
        reusedBits_[set] |= std::uint64_t{1} << way;
        if (policy_ == ReplPolicy::TreePLRU)
            plru_[set].touch(way);
    }

    std::uint32_t victimWay(std::uint64_t set) const
    {
        const std::uint32_t inv = firstInvalidWay(set);
        if (inv != assoc_)
            return inv;
        if (policy_ == ReplPolicy::TreePLRU)
            return plru_[set].victim();
        std::uint32_t victim = 0;
        for (std::uint32_t way = 1; way < assoc_; ++way)
            if (stampAt(set, way) < stampAt(set, victim))
                victim = way;
        return victim;
    }

    Eviction fill(std::uint64_t set, std::uint32_t way, Addr line_addr,
                  bool dirty, std::uint64_t stamp)
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        if (validBits_[set] & bit)
            evicted = record(set, way);
        tags_[set * assoc_ + way] = line_addr;
        stamps_[set * assoc_ + way] = stamp;
        validBits_[set] |= bit;
        dirtyBits_[set] = dirty ? dirtyBits_[set] | bit
                                : dirtyBits_[set] & ~bit;
        reusedBits_[set] &= ~bit;
        if (policy_ == ReplPolicy::TreePLRU)
            plru_[set].touch(way);
        return evicted;
    }

    Eviction invalidateAt(std::uint64_t set, std::uint32_t way)
    {
        MC_ASSERT(validAt(set, way));
        const Eviction evicted = record(set, way);
        validBits_[set] &= ~(std::uint64_t{1} << way);
        dirtyBits_[set] &= ~(std::uint64_t{1} << way);
        return evicted;
    }

    Eviction invalidate(Addr line_addr)
    {
        const auto way = probe(line_addr);
        if (!way)
            return {};
        return invalidateAt(setIndex(line_addr), *way);
    }

    std::uint64_t validLineCount() const
    {
        std::uint64_t count = 0;
        for (const std::uint64_t word : validBits_)
            count += static_cast<std::uint64_t>(std::popcount(word));
        return count;
    }

    /** The record-per-line checkpoint encoding. */
    void saveState(CkptWriter &w) const
    {
        w.u64(tags_.size());
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            for (std::uint32_t way = 0; way < assoc_; ++way) {
                const std::uint64_t bit = std::uint64_t{1} << way;
                w.u64(tags_[set * assoc_ + way]);
                w.u8(static_cast<std::uint8_t>(
                    ((validBits_[set] & bit) ? 1u : 0u) |
                    ((dirtyBits_[set] & bit) ? 2u : 0u) |
                    ((reusedBits_[set] & bit) ? 4u : 0u)));
                w.u64(stamps_[set * assoc_ + way]);
            }
        }
        w.u64(plru_.size());
        for (const ReferencePlruTree &tree : plru_)
            w.u64(tree.bits());
    }

  private:
    Eviction record(std::uint64_t set, std::uint32_t way) const
    {
        const std::uint64_t bit = std::uint64_t{1} << way;
        Eviction evicted;
        evicted.valid = true;
        evicted.lineAddr = tags_[set * assoc_ + way];
        evicted.dirty = (dirtyBits_[set] & bit) != 0;
        evicted.reused = (reusedBits_[set] & bit) != 0;
        return evicted;
    }

    ReplPolicy policy_;
    std::uint32_t assoc_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;
    std::uint64_t waysMask_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint64_t> validBits_;
    std::vector<std::uint64_t> dirtyBits_;
    std::vector<std::uint64_t> reusedBits_;
    std::vector<ReferencePlruTree> plru_;
};

} // namespace morphcache

#endif // MORPHCACHE_TESTS_SLICE_REFERENCE_HH
