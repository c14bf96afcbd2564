#include "interconnect/arbiter.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace morphcache {

RoundRobinArbiter2::Grants
RoundRobinArbiter2::arbitrate(bool req0, bool req1, bool granted,
                              bool fwdreq)
{
    Grants out;
    out.reqOut = fwdreq && (req0 || req1);
    if (!granted || (!req0 && !req1))
        return out;

    if (req0 && req1) {
        // Round-robin: grant the input that did not win last time.
        if (lastGnt_) {
            out.gnt0 = true;
            lastGnt_ = false;
        } else {
            out.gnt1 = true;
            lastGnt_ = true;
        }
    } else if (req0) {
        out.gnt0 = true;
        lastGnt_ = false;
    } else {
        out.gnt1 = true;
        lastGnt_ = true;
    }
    return out;
}

ArbiterTree::ArbiterTree(std::uint32_t num_leaves)
    : numLeaves_(num_leaves),
      nodes_(num_leaves),     // index 1..num_leaves-1 used
      enabled_(num_leaves, true)
{
    MC_ASSERT(num_leaves >= 2 && isPowerOf2(num_leaves));
}

void
ArbiterTree::configure(const std::vector<std::uint32_t> &group_of)
{
    MC_ASSERT(group_of.size() == numLeaves_);

    // Validate: each group is a contiguous, aligned, power-of-two
    // range of leaves.
    std::uint32_t i = 0;
    while (i < numLeaves_) {
        std::uint32_t j = i;
        while (j < numLeaves_ && group_of[j] == group_of[i])
            ++j;
        const std::uint32_t len = j - i;
        if (!isPowerOf2(len) || (i % len) != 0) {
            fatal("arbiter group of leaves [%u,%u) is not an aligned "
                  "power-of-two range", i, j);
        }
        // Group ids must not recur later (contiguity).
        for (std::uint32_t k = j; k < numLeaves_; ++k) {
            if (group_of[k] == group_of[i])
                fatal("arbiter group id %u is not contiguous",
                      group_of[i]);
        }
        i = j;
    }

    // A node is enabled when all leaves below it share a group.
    for (std::uint32_t node = 1; node < numLeaves_; ++node) {
        const std::uint32_t node_level = floorLog2(node);
        const std::uint32_t span = numLeaves_ >> node_level;
        const std::uint32_t first =
            (node - (1u << node_level)) * span;
        bool uniform = true;
        for (std::uint32_t leaf = first; leaf < first + span; ++leaf) {
            if (group_of[leaf] != group_of[first]) {
                uniform = false;
                break;
            }
        }
        enabled_[node] = uniform;
    }
}

void
ArbiterTree::reset()
{
    for (auto &node : nodes_)
        node.reset();
}

std::vector<bool>
ArbiterTree::arbitrate(const std::vector<bool> &requests)
{
    MC_ASSERT(requests.size() == numLeaves_);

    // Bottom-up request propagation. req[] is heap-indexed with the
    // leaves occupying [numLeaves_, 2*numLeaves_).
    std::vector<bool> req(2 * numLeaves_, false);
    for (std::uint32_t leaf = 0; leaf < numLeaves_; ++leaf)
        req[numLeaves_ + leaf] = requests[leaf];
    for (std::uint32_t node = numLeaves_ - 1; node >= 1; --node) {
        if (enabled_[node])
            req[node] = req[2 * node] || req[2 * node + 1];
    }

    // Top-down grant propagation. A node is a segment root when it
    // is enabled but its parent is not (or it is the tree root).
    std::vector<bool> granted(2 * numLeaves_, false);
    for (std::uint32_t node = 1; node < numLeaves_; ++node) {
        if (!enabled_[node]) {
            // Disabled switch: both subtrees are independent; each
            // enabled child (or leaf) becomes its own segment root.
            granted[2 * node] = true;
            granted[2 * node + 1] = true;
            continue;
        }
        const bool is_root = (node == 1) || !enabled_[node / 2];
        const bool self_granted = is_root ? true : granted[node];
        const auto grants = nodes_[node].arbitrate(
            req[2 * node], req[2 * node + 1], self_granted,
            /* fwdreq */ !is_root);
        granted[2 * node] = grants.gnt0;
        granted[2 * node + 1] = grants.gnt1;
    }

    std::vector<bool> result(numLeaves_, false);
    for (std::uint32_t leaf = 0; leaf < numLeaves_; ++leaf) {
        const std::uint32_t heap = numLeaves_ + leaf;
        // A single-leaf segment (parent disabled) self-grants; the
        // granted[] flag from a disabled parent only marks segment
        // rootness, so it must be combined with the leaf's request.
        result[leaf] = requests[leaf] && granted[heap];
    }
    return result;
}

} // namespace morphcache
