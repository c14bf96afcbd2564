/**
 * @file
 * Hierarchical segmented-bus arbitration (paper Section 3.2).
 *
 * The paper arbitrates a segmented bus with a tree of identical
 * 2-input round-robin arbiters (Figures 9 and 10). An arbiter at
 * level n produces two grant signals, each covering 2^(n-1) cache
 * slices; a slice acquires the bus when every arbiter it is
 * configured to share (the BusAcq AND-gate of Figure 11) grants it.
 *
 * Segmentation enters through the Fwdreq signal: an arbiter only
 * forwards requests to its parent when the bus segments on both
 * sides of the parent's switch belong to the same sharing group.
 * Disabling forwarding at a node therefore cuts the bus at that
 * point and lets the two sides run independent transactions, which
 * is exactly the Figure 7 switch behaviour.
 */

#ifndef MORPHCACHE_INTERCONNECT_ARBITER_HH
#define MORPHCACHE_INTERCONNECT_ARBITER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace morphcache {

/**
 * One 2-input round-robin arbiter (Figure 10).
 *
 * Combinationally: grants at most one of the two latched requests,
 * alternating priority via the Lastgnt register; also computes the
 * forwarded request (Reqout = Req0 | Req1) used by the next level.
 */
class RoundRobinArbiter2
{
  public:
    /** Result of one arbitration step. */
    struct Grants
    {
        bool gnt0 = false;
        bool gnt1 = false;
        /** Reqout: request forwarded to the next level. */
        bool reqOut = false;
    };

    /**
     * Arbitrate one cycle.
     *
     * @param req0 Request from the left subtree.
     * @param req1 Request from the right subtree.
     * @param granted Whether this arbiter's own output request was
     *        granted by the parent (always true at a segment root).
     * @param fwdreq Whether this node forwards upward (Share
     *        signal); when false the node is a segment root.
     */
    Grants arbitrate(bool req0, bool req1, bool granted, bool fwdreq);

    /** Reset the round-robin state. */
    void reset() { lastGnt_ = false; }

  private:
    /** False: input 0 was granted last; true: input 1. */
    bool lastGnt_ = false;
};

/**
 * A full arbiter tree over numLeaves() slices with configurable
 * segmentation.
 *
 * The tree is stored heap-style (node 1 = root). Leaves correspond
 * to cache slices in physical order. Segmentation is configured by
 * marking, for every internal node, whether it joins its two
 * subtrees (switch enabled) or cuts them apart (switch disabled).
 */
class ArbiterTree
{
  public:
    /** @param num_leaves Number of slices (power of two, >= 2). */
    explicit ArbiterTree(std::uint32_t num_leaves);

    /** Number of slice-side inputs. */
    std::uint32_t numLeaves() const { return numLeaves_; }

    /** Number of internal arbiter nodes (numLeaves - 1). */
    std::uint32_t numArbiters() const { return numLeaves_ - 1; }

    /**
     * Configure segmentation from a partition of the leaves into
     * contiguous aligned power-of-two groups.
     *
     * @param group_of group_of[i] is an arbitrary group id for leaf
     *        i; leaves with equal ids must form aligned contiguous
     *        power-of-two ranges.
     */
    void configure(const std::vector<std::uint32_t> &group_of);

    /**
     * Run one arbitration cycle.
     *
     * @param requests requests[i] is true when slice i wants the bus.
     * @return grant[i] per slice; at most one grant per segment.
     */
    std::vector<bool> arbitrate(const std::vector<bool> &requests);

    /** Reset all round-robin state. */
    void reset();

  private:
    std::uint32_t numLeaves_;
    /** Heap-ordered arbiters; index 1..numLeaves_-1. */
    std::vector<RoundRobinArbiter2> nodes_;
    /** enabled_[n]: node n joins its two subtrees (switch closed). */
    std::vector<bool> enabled_;
};

} // namespace morphcache

#endif // MORPHCACHE_INTERCONNECT_ARBITER_HH
