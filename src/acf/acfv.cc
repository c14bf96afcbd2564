#include "acf/acfv.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace morphcache {

AcfvBank::AcfvBank(std::uint32_t num_slices, std::uint32_t num_cores,
                   std::uint32_t num_bits, HashKind kind)
    : numSlices_(num_slices), numCores_(num_cores), numBits_(num_bits),
      numWords_((num_bits + 63) / 64), log2Bits_(0), kind_(kind),
      words_(std::size_t{num_slices} * numWords_ * num_cores, 0)
{
    MC_ASSERT(num_slices > 0 && num_cores > 0);
    MC_ASSERT(num_bits >= 2 && isPowerOf2(num_bits));
    log2Bits_ = exactLog2(num_bits);
}

void
AcfvBank::flip(CoreId core, SliceId slice, std::uint32_t i)
{
    MC_ASSERT(core < numCores_ && slice < numSlices_ && i < numBits_);
    words_[at(core, slice, i / 64)] ^= (1ULL << (i % 64));
}

void
AcfvBank::resetAll()
{
    std::fill(words_.begin(), words_.end(), 0);
}

std::uint64_t
AcfvBank::unionWord(std::span<const SliceId> slices, std::uint32_t w) const
{
    std::uint64_t acc = 0;
    for (SliceId s : slices) {
        const std::uint64_t *run = &words_[at(0, s, w)];
        for (std::uint32_t c = 0; c < numCores_; ++c)
            acc |= run[c];
    }
    return acc;
}

std::uint32_t
AcfvBank::sliceAcfPopcount(SliceId slice) const
{
    std::uint32_t count = 0;
    for (std::uint32_t w = 0; w < numWords_; ++w)
        count += static_cast<std::uint32_t>(
            std::popcount(unionWord({&slice, 1}, w)));
    return count;
}

double
AcfvBank::utilization(std::span<const SliceId> slices) const
{
    MC_ASSERT(!slices.empty());
    std::uint64_t ones = 0;
    for (SliceId s : slices)
        ones += sliceAcfPopcount(s);
    return static_cast<double>(ones) /
           (static_cast<double>(numBits_) *
            static_cast<double>(slices.size()));
}

double
AcfvBank::overlap(std::span<const SliceId> a,
                  std::span<const SliceId> b) const
{
    std::uint32_t common = 0, pa = 0, pb = 0;
    for (std::uint32_t w = 0; w < numWords_; ++w) {
        const std::uint64_t wa = unionWord(a, w);
        const std::uint64_t wb = unionWord(b, w);
        common += static_cast<std::uint32_t>(std::popcount(wa & wb));
        pa += static_cast<std::uint32_t>(std::popcount(wa));
        pb += static_cast<std::uint32_t>(std::popcount(wb));
    }
    const std::uint32_t smaller = std::min(pa, pb);
    if (smaller == 0)
        return 0.0;
    // Report the *lift over chance*: two unrelated footprints that
    // each cover half the vector share half their bits by
    // pigeonhole, so the raw common-1s count saturates at high
    // utilization. Subtracting the expected random intersection
    // (popA*popB/bits) leaves the component actual data sharing
    // contributes — a two-multiplier refinement of the paper's
    // common-1s test that keeps it meaningful at high coverage.
    const double bits = static_cast<double>(numBits_) *
                        static_cast<double>(a.size());
    const double expected =
        static_cast<double>(pa) * static_cast<double>(pb) / bits;
    const double excess = static_cast<double>(common) - expected;
    const double headroom = static_cast<double>(smaller) - expected;
    if (headroom <= 0.0)
        return 0.0;
    return std::max(0.0, excess / headroom);
}

void
OracleAcf::set(Addr line_addr)
{
    lines_.insert(line_addr);
}

void
OracleAcf::clear(Addr line_addr)
{
    lines_.erase(line_addr);
}

void
OracleAcf::resetAll()
{
    lines_.clear();
}

} // namespace morphcache
