// mc_analyze clean fixture: the same shapes as wrap_bug.cc, each
// routed through the sanctioned pattern (satSub/satDec from
// src/common/bitops.hh). Must produce no findings.

#include <cstdint>

namespace fixture {

std::uint64_t
waitCycles(std::uint64_t busyUntil, std::uint64_t now)
{
    // Saturating helper: floors at zero instead of wrapping.
    std::uint64_t wait = morphcache::satSub(busyUntil, now);
    return wait;
}

std::int64_t
signedDelta(std::int64_t cyclesBefore, std::int64_t cyclesAfter)
{
    // Signed math does not wrap at zero; never flagged.
    return cyclesAfter - cyclesBefore;
}

void
drainBudget(std::uint64_t latency)
{
    std::uint64_t cycleBudget = morphcache::satSub(
        std::uint64_t{100}, latency);
    std::uint64_t txnCount = 0;
    morphcache::satDec(txnCount);
    (void)cycleBudget;
}

} // namespace fixture
