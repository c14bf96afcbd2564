/**
 * @file
 * Cache line (way) outcome types.
 *
 * Per-way storage itself lives in a level's SliceStore (set-major
 * address, stamp and fingerprint arrays plus packed flag words per
 * set and slice); the record type that remains here is the
 * eviction outcome handed across the slice boundary. A way carries:
 * the full line address (block number, stored rather than a tag so
 * lines remain unambiguous when a slice participates in differently
 * shaped logical groups over its lifetime), a valid bit, a dirty
 * bit, a global recency stamp (larger is more recent; doubles as
 * the "ideal LRU timestamp" the paper mentions for merging LRU
 * state), and a reused bit — set on the first hit after a fill, so
 * single-use (streaming) lines end their residency with it still
 * clear, which is what keeps them out of the active-footprint
 * estimate (Section 2.1 defines the ACF through *reuse*). Its
 * fingerprint byte is derived from the address and never leaves
 * the store.
 */

#ifndef MORPHCACHE_MEM_LINE_HH
#define MORPHCACHE_MEM_LINE_HH

#include "common/types.hh"

namespace morphcache {

/** Result of filling a way: what was evicted, if anything. */
struct Eviction
{
    /** True when a valid line was displaced. */
    bool valid = false;
    /** Block number of the displaced line. */
    Addr lineAddr = 0;
    /** Whether the displaced line was dirty (needs writeback). */
    bool dirty = false;
    /** Whether the displaced line had been reused at this level. */
    bool reused = false;
};

} // namespace morphcache

#endif // MORPHCACHE_MEM_LINE_HH
