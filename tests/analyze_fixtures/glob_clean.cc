// mc_analyze clean fixture: immutable namespace-scope constants, a
// declaration of a variable defined elsewhere, and per-object
// state. Must produce no findings.

#include <cstdint>

namespace fixture {

constexpr std::uint32_t maxCores = 16;
const char *const schemeNames[] = {"morph", "static"};
static const std::uint64_t defaultSeed = 42;
extern const int definedElsewhere;

struct CellState
{
    // Per-cell, not namespace-scope.
    std::uint64_t cellsRun = 0;
    static constexpr std::uint32_t ways = 16;
};

} // namespace fixture
