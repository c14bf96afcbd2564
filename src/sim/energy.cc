#include "sim/energy.hh"

namespace morphcache {

namespace {

// Per-event energies in picojoules.

/** L1 hit access. */
constexpr double l1AccessPj = 10.0;
/** Probe + read of one L2 slice. */
constexpr double l2SliceAccessPj = 35.0;
/** Probe + read of one L3 slice. */
constexpr double l3SliceAccessPj = 90.0;
/** Off-chip DRAM access. */
constexpr double memAccessPj = 2000.0;
/**
 * Bus transaction energy per tile of segment span: switched
 * capacitance scales with the wire length actually driven.
 */
constexpr double busPerTilePj = 6.0;
/** Static/arbitration overhead per bus transaction. */
constexpr double busBasePj = 4.0;

} // namespace

EnergyBreakdown
accountEnergy(const Hierarchy &hierarchy)
{
    EnergyBreakdown out;

    std::uint64_t l1_accesses = 0;
    std::uint64_t mem_accesses = 0;
    for (std::uint32_t c = 0; c < hierarchy.numCores(); ++c) {
        const CoreStats &stats =
            hierarchy.coreStats(static_cast<CoreId>(c));
        l1_accesses += stats.accesses; // every reference probes L1
        mem_accesses += stats.memAccesses;
    }
    out.l1 = static_cast<double>(l1_accesses) * l1AccessPj;
    out.memory = static_cast<double>(mem_accesses) * memAccessPj;

    const LevelStats &l2 = hierarchy.l2().stats();
    const LevelStats &l3 = hierarchy.l3().stats();
    out.l2 = static_cast<double>(l2.sliceProbes) * l2SliceAccessPj;
    out.l3 = static_cast<double>(l3.sliceProbes) * l3SliceAccessPj;
    out.bus = static_cast<double>(l2.busEvents + l3.busEvents) *
                  busBasePj +
              static_cast<double>(l2.busSpanTiles + l3.busSpanTiles) *
                  busPerTilePj;
    return out;
}

} // namespace morphcache
