/**
 * @file
 * Energy model (the paper's stated future work).
 *
 * The paper's concluding remarks: "we believe that the
 * segmented-bus architecture would lead to reduced power
 * consumption in MorphCache, [and] we would like to quantify this
 * improvement in the future." This module quantifies it with an
 * event-energy model: per-access energies for each cache level
 * (CACTI-style constants, scaled by structure size), off-chip
 * access energy, and — the interesting part — bus transaction
 * energy proportional to the *physical span of the segment
 * driven*, since switched capacitance grows with the wire length
 * between the enabled switches (Guo et al. [8], the paper's
 * segmented-bus reference). A small sharing group drives a short
 * segment; a monolithic shared bus pays the full chip crossing on
 * every transaction.
 */

#ifndef MORPHCACHE_SIM_ENERGY_HH
#define MORPHCACHE_SIM_ENERGY_HH

#include <cstdint>

#include "hierarchy/hierarchy.hh"

namespace morphcache {

/** Accumulated energy breakdown in picojoules. */
struct EnergyBreakdown
{
    double l1 = 0.0;
    double l2 = 0.0;
    double l3 = 0.0;
    double memory = 0.0;
    double bus = 0.0;

    double
    total() const
    {
        return l1 + l2 + l3 + memory + bus;
    }
};

/**
 * Computes the energy of a finished run from the hierarchy's
 * counters and the sharing degrees it executed with.
 *
 * Group lookups probe every member slice (the broadcast the
 * segmented bus delivers), so a lookup in a k-slice group costs
 * k slice accesses; bus transactions are charged by their
 * segment's physical span. For static topologies the same
 * accounting applies — a fixed shared cache still probes its banks
 * and drives its interconnect — which is exactly the comparison
 * the paper's remark is about. The per-event energies are the
 * constants in energy.cc.
 */
EnergyBreakdown accountEnergy(const Hierarchy &hierarchy);

} // namespace morphcache

#endif // MORPHCACHE_SIM_ENERGY_HH
