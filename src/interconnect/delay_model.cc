#include "interconnect/delay_model.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace morphcache {

double
ArbiterTreeFigures::worstPathNs() const
{
    const double request = requestWireNs + requestLogicNs;
    const double grant = grantWireNs + grantLogicNs;
    return request > grant ? request : grant;
}

double
ArbiterTreeFigures::maxFrequencyGhz() const
{
    const double worst = worstPathNs();
    MC_ASSERT(worst > 0.0);
    return 1.0 / worst;
}

namespace {

// Technology/floorplan constants (paper Table 1 + Figure 12).

/** Wire delay in ns per mm (Cacti 6.5, 45 nm). */
constexpr double wireDelayNsPerMm = 0.038;
/** Synthesized area of one 2-input arbiter cell in um^2. */
constexpr double arbiterAreaUm2 = 22.93;
/** Logic delay through one arbiter level on the request path. */
constexpr double requestLogicNsPerLevel = 0.1225;
/** Total logic delay on the grant path (grant decode + BusAcq). */
constexpr double grantLogicNs = 0.32;
/** Tile pitch along a column of cores (Figure 12), mm. */
constexpr double tilePitchMm = 2.5;
/** Horizontal distance between the two core columns, mm. */
constexpr double columnSeparationMm = 7.5;

/**
 * Worst-case leaf-to-root wire length of an H-tree over `leaves`
 * slices placed along a column at the tile pitch, optionally
 * crossing between columns at the top level.
 */
double
treeWireMm(std::uint32_t leaves, bool crosses_columns)
{
    // H-tree style placement along a column of tiles: the level-k
    // arbiter sits midway between the level-(k-1) arbiters (or
    // slices) it joins, so each upward hop doubles: pitch/2, pitch,
    // 2*pitch, ... The worst-case request wire is the sum of hops
    // from the farthest slice up to the segment root.
    std::uint32_t column_leaves = crosses_columns ? leaves / 2 : leaves;
    double hop = tilePitchMm / 2.0;
    double total = 0.0;
    for (std::uint32_t span = 2; span <= column_leaves; span *= 2) {
        total += hop;
        hop *= 2.0;
    }
    if (crosses_columns) {
        // Top-level hop from a column root to the chip-center root.
        total += columnSeparationMm / 4.0;
    }
    return total;
}

/** Figures of a `levels`-level tree of arbiters over `leaves` slices. */
ArbiterTreeFigures
treeFigures(std::uint32_t levels, std::uint32_t num_arbiters,
            std::uint32_t leaves, bool crosses_columns)
{
    ArbiterTreeFigures fig;
    fig.levels = levels;
    fig.numArbiters = num_arbiters;
    fig.totalAreaUm2 = fig.numArbiters * arbiterAreaUm2;
    const double wire =
        treeWireMm(leaves, crosses_columns) * wireDelayNsPerMm;
    fig.requestWireNs = wire;
    fig.requestLogicNs = fig.levels * requestLogicNsPerLevel;
    fig.grantWireNs = wire;
    fig.grantLogicNs = grantLogicNs;
    return fig;
}

} // namespace

ArbiterTreeFigures
ArbiterDelayModel::l2Tree() const
{
    // Per side of the chip: 8 slices in one column.
    return treeFigures(3, 7, 8, false);
}

ArbiterTreeFigures
ArbiterDelayModel::l3Tree() const
{
    // Across the whole chip: 16 slices over both columns.
    return treeFigures(4, 15, 16, true);
}

TransactionFigures
ArbiterDelayModel::transaction() const
{
    TransactionFigures fig;
    fig.busCycles = busCyclesPerTxn;
    const double ratio = coreClockGhz / busClockGhz;
    fig.cpuCycles =
        static_cast<std::uint32_t>(fig.busCycles * ratio + 0.5);
    fig.cpuCyclesPipelined = static_cast<std::uint32_t>(
        satSub(fig.busCycles, 1u) * ratio + 0.5);
    return fig;
}

} // namespace morphcache
