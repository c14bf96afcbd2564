/**
 * @file
 * Analytical area/delay model of the arbiter hierarchy
 * (paper Section 3.2, Tables 1 and 2, Figure 12 floorplan).
 *
 * The paper synthesizes the arbiter in 45 nm Synopsys libraries and
 * reports per-tree area, request/grant wire and logic delays, a
 * resulting 1.12 GHz maximum arbiter frequency (derated to 1 GHz),
 * and the end-to-end 3-bus-cycle transaction that costs 15 CPU
 * cycles at 5 GHz. Synthesis is not reproducible offline, so this
 * model recomputes every *derived* quantity from first principles:
 * wire delays from the Figure 12 floorplan geometry and the Table 1
 * wire-delay constant, logic delays and per-arbiter cell area from
 * the calibrated constants below (chosen once so that the published
 * leaf numbers are reproduced, then never touched per experiment).
 */

#ifndef MORPHCACHE_INTERCONNECT_DELAY_MODEL_HH
#define MORPHCACHE_INTERCONNECT_DELAY_MODEL_HH

#include <cstdint>

namespace morphcache {

/** Core clock in GHz (Section 3.2 assumes a 5 GHz core). */
inline constexpr double coreClockGhz = 5.0;
/** Bus clock in GHz (conservatively derated from the maximum). */
inline constexpr double busClockGhz = 1.0;
/** Bus cycles of one transaction: request + grant + data. */
inline constexpr std::uint32_t busCyclesPerTxn = 3;
/** CPU cycles per bus cycle (5 GHz core / 1 GHz bus). */
inline constexpr std::uint32_t cpuCyclesPerBusCycle =
    static_cast<std::uint32_t>(coreClockGhz / busClockGhz);

/**
 * CPU cycles of one bus transaction: the paper's 15-cycle remote
 * access overhead (Sections 3.2 and 4).
 */
inline constexpr std::uint32_t busTxnCpuCycles =
    busCyclesPerTxn * cpuCyclesPerBusCycle;
/** CPU cycles of a request-only transaction (no data phase): 10. */
inline constexpr std::uint32_t busRequestCpuCycles =
    (busCyclesPerTxn - 1) * cpuCyclesPerBusCycle;

/** Derived area/delay figures for one arbiter tree. */
struct ArbiterTreeFigures
{
    std::uint32_t levels = 0;
    std::uint32_t numArbiters = 0;
    double totalAreaUm2 = 0.0;
    double requestWireNs = 0.0;
    double requestLogicNs = 0.0;
    double grantWireNs = 0.0;
    double grantLogicNs = 0.0;

    /** Worst one-way delay (request or grant path). */
    double worstPathNs() const;
    /** Maximum arbiter frequency implied by the worst path, GHz. */
    double maxFrequencyGhz() const;
};

/** End-to-end bus transaction figures (Section 3.2). */
struct TransactionFigures
{
    /** Bus cycles: request + grant + data. */
    std::uint32_t busCycles = 0;
    /** CPU-cycle overhead of one transaction. */
    std::uint32_t cpuCycles = 0;
    /** Same with the footnote-2 pipelining optimization. */
    std::uint32_t cpuCyclesPipelined = 0;
};

/**
 * Computes the Table 2 figures for the L2 and L3 arbiter trees of a
 * 16-core MorphCache floorplan, from the Table 1 and Figure 12
 * constants in delay_model.cc.
 */
class ArbiterDelayModel
{
  public:
    /**
     * Figures for one side's L2 tree: 8 slices in one column, a
     * 3-level tree of 7 arbiters (Table 2, left column).
     */
    ArbiterTreeFigures l2Tree() const;

    /**
     * Figures for the chip-wide L3 tree: 16 slices across both
     * columns, 4 levels, 15 arbiters (Table 2, right column).
     */
    ArbiterTreeFigures l3Tree() const;

    /** End-to-end transaction cost (3 bus cycles, 15/10 CPU cycles). */
    TransactionFigures transaction() const;
};

} // namespace morphcache

#endif // MORPHCACHE_INTERCONNECT_DELAY_MODEL_HH
