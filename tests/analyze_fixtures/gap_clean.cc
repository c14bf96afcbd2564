// mc_analyze clean fixture: the same out-of-body shapes as
// gap_bug.cc, fed from seeds. Declarations named time()/clock()
// are declarations, not calls. Must produce no findings.

#include <cstdint>

namespace fixture {

constexpr std::uint64_t
seededValue(std::uint64_t seed)
{
    return seed * 0x9e3779b97f4a7c15ULL;
}

static const std::uint64_t startSeed = seededValue(1);

const auto ticks = [](std::uint64_t cycle) { return cycle * 2; };

struct Cell
{
    std::uint64_t seed = seededValue(7);
    static inline std::uint64_t stamp = seededValue(3);

    // Accessors that share libc names.
    std::uint64_t time() const;
    std::uint64_t clock() const;

    void reseed(std::uint64_t s = seededValue(9));

    Cell() : jitter_(seededValue(5)) {}

    std::uint64_t jitter_;
};

} // namespace fixture
