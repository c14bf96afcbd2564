#include "mem/slice.hh"

#include <string>

namespace morphcache {

namespace {

/** The geometry, asserted valid before any array is sized from it. */
const CacheGeometry &
checked(const CacheGeometry &geom)
{
    MC_ASSERT(geom.valid());
    // The row record's flag words cap associativity at one machine
    // word.
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
      assocReciprocal_(((std::uint64_t{1} << 32) + geom.assoc - 1) /
                       geom.assoc),
      tags_(geom.numLines() * num_slices, 0),
      stamps_(geom.numLines() * num_slices, 0),
      fingerprints_(geom.numLines() * num_slices + 15, 0),
      rows_(geom.numSets() * num_slices),
      // Only tree-PLRU consults the trees. Under LRU the rule is a
      // one-leaf tree whose words keep the checkpoint layout, so an
      // LRU slice may have any associativity up to 64.
      plru_(policy == ReplPolicy::TreePLRU ? geom.assoc : 1)
{
    MC_ASSERT(num_slices > 0);
}

template <class Ar, class Self>
void
SliceStore::checkpointFields(Ar &ar, Self &self, SliceId slice)
{
    const std::uint32_t assoc = self.assoc_;
    ar.expectU64("slice line count", self.numSets_ * assoc);
    for (std::uint64_t set = 0; set < self.numSets_; ++set) {
        const std::size_t r = set * self.numSlices_ + slice;
        auto &row = self.rows_[r];
        for (std::uint32_t way = 0; way < assoc; ++way) {
            const std::size_t idx = r * assoc + way;
            ar.u64(self.tags_[idx]);
            // Valid, dirty and reused: bits 0-2 of one byte.
            auto flags = static_cast<std::uint8_t>(
                ((row.valid >> way) & 1) |
                (((row.dirty >> way) & 1) << 1) |
                (((row.reused >> way) & 1) << 2));
            ar.u8(flags);
            if constexpr (Ar::loading) {
                if (flags > 7)
                    ar.fail("cache-line flags byte is " +
                            std::to_string(flags) + ", expected <= 7");
                const std::uint64_t bit = std::uint64_t{1} << way;
                row.valid = (flags & 1) ? row.valid | bit : row.valid & ~bit;
                row.dirty = (flags & 2) ? row.dirty | bit : row.dirty & ~bit;
                row.reused =
                    (flags & 4) ? row.reused | bit : row.reused & ~bit;
            }
            ar.u64(self.stamps_[idx]);
        }
    }
    // The slice's PLRU trees: one word of direction bits per set.
    ar.expectU64("PLRU tree count", self.numSets_);
    for (std::uint64_t set = 0; set < self.numSets_; ++set)
        ar.u64(self.rows_[set * self.numSlices_ + slice].plru);
}

void
SliceStore::saveState(CkptWriter &w, SliceId slice) const
{
    checkpointFields(w, *this, slice);
}

void
SliceStore::loadState(CkptReader &r, SliceId slice)
{
    checkpointFields(r, *this, slice);
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const std::size_t base = (set * numSlices_ + slice) * assoc_;
        for (std::uint32_t way = 0; way < assoc_; ++way)
            fingerprints_[base + way] = fingerprint(tags_[base + way]);
    }
}

} // namespace morphcache
