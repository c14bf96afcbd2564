#include "mem/replacement.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace morphcache {

PlruRule::PlruRule(std::uint32_t assoc)
{
    MC_ASSERT(assoc >= 1 && isPowerOf2(assoc));
    MC_ASSERT(assoc <= 64, "tree-PLRU supports at most 64 ways");
    levels_ = exactLog2(assoc);
    // Walk each way's path from the root: at each level the way lies
    // in the left or right half, and its touch points the node's bit
    // at the other half.
    for (std::uint32_t way = 0; way < assoc; ++way) {
        Step &step = steps_[way];
        std::uint32_t node = 1;
        for (std::uint32_t level = 0; level < levels_; ++level) {
            const std::uint32_t dir = (way >> (levels_ - 1 - level)) & 1;
            step.path |= std::uint64_t{1} << node;
            if (dir == 0)
                step.dirs |= std::uint64_t{1} << node; // victim right
            node = node * 2 + dir;
        }
    }
}

} // namespace morphcache
