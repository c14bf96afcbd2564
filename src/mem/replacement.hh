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

#include <array>
#include <cstdint>

namespace morphcache {

/** Selects how victims are chosen within a physical slice. */
enum class ReplPolicy : std::uint8_t {
    /** Exact least-recently-used via global stamps. */
    LRU,
    /** Generalized tree pseudo-LRU. */
    TreePLRU,
};

/**
 * Generalized tree pseudo-LRU over `assoc` ways (a power of two, at
 * most 64), as a rule applied to one word of direction bits per set.
 * The bits are heap-ordered: node 1 is the root and node n's children
 * are 2n and 2n + 1. A 0 bit means the victim is in the left
 * subtree, a 1 the right one; an access points every bit on its path
 * away from the accessed way.
 *
 * The rule is built once from the associativity: for each way, the
 * mask of the nodes on its path and the bits a touch leaves there.
 * A touch is then one AND-NOT and one OR, with no branch on the
 * way's bits (a per-level branch mispredicts on random ways). A
 * one-way rule has no nodes: touch() returns the bits unchanged for
 * any way below 64, and victim() is way 0.
 */
class PlruRule
{
  public:
    /** @param assoc Ways covered (power of two, 1 to 64). */
    explicit PlruRule(std::uint32_t assoc);

    /** The direction bits after an access to `way`. */
    std::uint64_t
    touch(std::uint64_t bits, std::uint32_t way) const
    {
        const Step &step = steps_[way];
        return (bits & ~step.path) | step.dirs;
    }

    /** The way the direction bits designate as the victim. */
    std::uint32_t
    victim(std::uint64_t bits) const
    {
        std::uint32_t node = 1;
        for (std::uint32_t level = 0; level < levels_; ++level)
            node = node * 2 + static_cast<std::uint32_t>((bits >> node) & 1);
        return node - (std::uint32_t{1} << levels_);
    }

  private:
    /** One way's path through the tree. */
    struct Step
    {
        /** Nodes on the path from the root to the way. */
        std::uint64_t path = 0;
        /** The path nodes a touch sets: those whose way is left. */
        std::uint64_t dirs = 0;
    };

    /** Tree depth: log2 of the ways covered. */
    std::uint32_t levels_ = 0;
    /** Per-way steps; ways past the rule's own have no nodes. */
    std::array<Step, 64> steps_{};
};

} // namespace morphcache

#endif // MORPHCACHE_MEM_REPLACEMENT_HH
