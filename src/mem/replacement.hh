/**
 * @file
 * Replacement policies for cache slices.
 *
 * Two policies are modelled, matching Section 2.2 of the paper:
 * exact LRU via global timestamps (the stamps live in the level
 * store's per-way stamp array), and generalized tree pseudo-LRU
 * (Robinson [24]) as the practical alternative. When slices are
 * merged, timestamps compose directly; PLRU trees are kept per slice
 * and composed with a per-set rotor, mirroring the paper's
 * observation that merged trees may be combined "in any order" and
 * future accesses quickly rebuild a meaningful ordering.
 */

#ifndef MORPHCACHE_MEM_REPLACEMENT_HH
#define MORPHCACHE_MEM_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"

namespace morphcache {

/** Selects how victims are chosen within a physical slice. */
enum class ReplPolicy : std::uint8_t {
    /** Exact least-recently-used via global stamps. */
    LRU,
    /** Generalized tree pseudo-LRU. */
    TreePLRU,
};

/**
 * A binary tree of direction bits over `assoc` ways (assoc must be a
 * power of two). Bit semantics: 0 means the PLRU victim is in the
 * left subtree, 1 the right subtree; an access flips the bits on its
 * path to point away from the accessed way.
 */
class PlruTree
{
  public:
    /** @param assoc Number of ways covered (power of two, >= 1). */
    explicit PlruTree(std::uint32_t assoc);

    /** Record an access to `way`, protecting it from replacement. */
    void touch(std::uint32_t way);

    /** Way the tree currently designates as the victim. */
    std::uint32_t victim() const;

    /** Number of ways covered. */
    std::uint32_t assoc() const { return assoc_; }

    /** Raw direction bits (for tests). */
    std::uint64_t bits() const { return bits_; }

    /** Serialize direction bits; geometry is construction-time. */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.u64(self.bits_);
    }

    std::uint32_t assoc_;  // ckpt: derived(PlruTree)
    std::uint32_t levels_; // ckpt: derived(PlruTree)
    /** Heap-ordered direction bits; node 1 is the root. */
    std::uint64_t bits_ = 0;
};

/**
 * Per-slice PLRU state: one tree per set.
 */
class PlruState
{
  public:
    PlruState(std::uint64_t num_sets, std::uint32_t assoc);

    /** Tree for a given set. */
    PlruTree &tree(std::uint64_t set);
    const PlruTree &tree(std::uint64_t set) const;

    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.expectU64("PLRU tree count", self.trees_.size());
        for (auto &tree : self.trees_)
            ar.nested(tree);
    }

    std::vector<PlruTree> trees_;
};

} // namespace morphcache

#endif // MORPHCACHE_MEM_REPLACEMENT_HH
