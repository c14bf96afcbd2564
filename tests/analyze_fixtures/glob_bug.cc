// mc_analyze mutation fixture: mutable namespace-scope state, the
// way -jN stops being -j1 (DESIGN.md section 9 rule 2).
// Never compiled; analyzed with --fixture-mode by analyze_test.cc.

#include <cstdint>
#include <vector>

namespace fixture {

// Shared by every cell on every thread.
std::uint64_t cellsRun = 0;

namespace {

// Internal linkage does not make it per-cell.
std::vector<std::uint64_t> lastSeeds;
static std::uint64_t epochCursor{0};

} // namespace

thread_local std::uint64_t scratchCycle = 0;

} // namespace fixture
