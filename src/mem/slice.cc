#include "mem/slice.hh"

#include <string>

namespace morphcache {

namespace {

/** The geometry, asserted valid before any array is sized from it. */
const CacheGeometry &
checked(const CacheGeometry &geom)
{
    MC_ASSERT(geom.valid());
    // The per-set flag words cap associativity at one machine word.
    MC_ASSERT(geom.assoc <= 64);
    return geom;
}

} // namespace

SliceStore::SliceStore(std::uint32_t num_slices,
                       const CacheGeometry &geom, ReplPolicy policy)
    : policy_(policy), numSlices_(num_slices),
      assoc_(checked(geom).assoc), numSets_(geom.numSets()),
      setMask_(geom.numSets() - 1),
      waysMask_(geom.assoc >= 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << geom.assoc) - 1),
      tags_(geom.numLines() * num_slices, 0),
      stamps_(geom.numLines() * num_slices, 0),
      fingerprints_(geom.numLines() * num_slices + 7, 0),
      validBits_(geom.numSets() * num_slices, 0),
      dirtyBits_(geom.numSets() * num_slices, 0),
      reusedBits_(geom.numSets() * num_slices, 0),
      // Only tree-PLRU consults the trees. Under LRU they are
      // one-leaf trees whose words keep the checkpoint layout, so
      // an LRU slice may have any associativity up to 64.
      plru_(num_slices,
            PlruState(geom.numSets(),
                      policy == ReplPolicy::TreePLRU ? geom.assoc : 1))
{
    MC_ASSERT(num_slices > 0);
}

void
SliceStore::saveState(CkptWriter &w, SliceId slice) const
{
    w.u64(numSets_ * assoc_);
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const std::size_t row = set * numSlices_ + slice;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            const std::size_t idx = row * assoc_ + way;
            w.u64(tags_[idx]);
            w.u8(static_cast<std::uint8_t>(
                ((validBits_[row] >> way) & 1) |
                (((dirtyBits_[row] >> way) & 1) << 1) |
                (((reusedBits_[row] >> way) & 1) << 2)));
            w.u64(stamps_[idx]);
        }
    }
    plru_[slice].saveState(w);
}

void
SliceStore::loadState(CkptReader &r, SliceId slice)
{
    r.expectU64("slice line count", numSets_ * assoc_);
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const std::size_t row = set * numSlices_ + slice;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            const std::size_t idx = row * assoc_ + way;
            const std::uint64_t bit = std::uint64_t{1} << way;
            tags_[idx] = r.u64();
            fingerprints_[idx] = fingerprint(tags_[idx]);
            const std::uint8_t flags = r.u8();
            if (flags > 7)
                r.fail("cache-line flags byte is " +
                       std::to_string(flags) + ", expected <= 7");
            validBits_[row] = (flags & 1) ? validBits_[row] | bit
                                          : validBits_[row] & ~bit;
            dirtyBits_[row] = (flags & 2) ? dirtyBits_[row] | bit
                                          : dirtyBits_[row] & ~bit;
            reusedBits_[row] = (flags & 4) ? reusedBits_[row] | bit
                                           : reusedBits_[row] & ~bit;
            stamps_[idx] = r.u64();
        }
    }
    plru_[slice].loadState(r);
}

} // namespace morphcache
