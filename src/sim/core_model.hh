/**
 * @file
 * Analytical core timing model.
 *
 * The paper simulates 4-issue superscalar cores; here, each memory
 * reference is surrounded by a fixed number of non-memory
 * instructions retiring at the issue width, and the reference
 * itself stalls the core for its hierarchy latency divided by an
 * overlap factor (memory-level parallelism). Absolute IPC is not
 * the reproduction target — all of the paper's results are
 * normalized — but the model makes latency differences between
 * topologies flow into IPC exactly the way Table 3's latencies
 * intend.
 */

#ifndef MORPHCACHE_SIM_CORE_MODEL_HH
#define MORPHCACHE_SIM_CORE_MODEL_HH

#include "common/types.hh"

namespace morphcache {

/** Superscalar issue width (Table 3: 4). */
inline constexpr double issueWidth = 4.0;

/**
 * Instructions per memory reference (incl. the reference). Spaces
 * references out in time the way real instruction streams do; this
 * is what keeps a merged group's segmented bus below saturation at
 * realistic miss rates.
 */
inline constexpr double instrPerAccess = 10.0;

/** MLP: effective overlap of memory stalls. */
inline constexpr double overlapFactor = 2.0;

/** Cycles one reference adds to its core's clock. */
inline double
cyclesForAccess(Cycle latency)
{
    return instrPerAccess / issueWidth +
           static_cast<double>(latency) / overlapFactor;
}

} // namespace morphcache

#endif // MORPHCACHE_SIM_CORE_MODEL_HH
