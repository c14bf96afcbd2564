// mc_analyze mutation fixture: entropy and wall-clock reads outside
// any function body, where a body-only scan sees nothing. The
// determinism pass reads them from the file scope.
// Never compiled; analyzed with --fixture-mode by analyze_test.cc.

#include <chrono>
#include <cstdlib>
#include <ctime>

namespace fixture {

// 1. Namespace-scope initializer.
static const long startTime = std::time(nullptr);

// 2. A const namespace-scope lambda that reads the clock.
const auto nowTicks = [] {
    return std::chrono::steady_clock::now().time_since_epoch().count();
};

struct Cell
{
    // 3. Default member initializer.
    int seed = rand();

    // 4. In-class static inline initializer.
    static inline long stamp = time(nullptr);

    // 5. Default argument.
    void reseed(long s = time(nullptr));

    // 6. Constructor initializer list.
    Cell() : jitter_(rand()) {}

    int jitter_;
};

} // namespace fixture
