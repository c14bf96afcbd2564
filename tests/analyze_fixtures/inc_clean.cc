// mc_analyze clean fixture: own header first, then system headers.
// Checked as if this directory were src/. Must produce no findings.

#include "inc_clean.hh"

#include <cstdint>

namespace fixture {

int
incClean()
{
    return static_cast<int>(std::uint8_t{1});
}

} // namespace fixture
