/**
 * @file
 * Cell seeds and the in-process parallel map.
 *
 * A sweep is an ordered list of independent *cells* — one
 * simulation run each (one config × workload × seed point). Grids
 * of cells run through the campaign executor (`mc_campaign`); the
 * bench binaries fan their per-mix rows through parallelMap(). Both
 * give output that is byte-identical no matter how many workers ran
 * it, because:
 *
 *  - every cell owns its full simulation state: its own Workload,
 *    its own memory system / hierarchy, and its own StatsRegistry —
 *    nothing simulated is shared between cells;
 *  - cell seeds derive only from (base seed, cell index) via
 *    sweepCellSeed(), never from thread identity or time;
 *  - results land in a pre-sized slot per cell (no reordering, no
 *    reallocation) and are read back only after every worker has
 *    joined;
 *  - the remaining process-wide state (the log sinks and the phase
 *    Profiler) is mutex-guarded / atomic and feeds no simulated
 *    numbers.
 */

#ifndef MORPHCACHE_RUNNER_SWEEP_HH
#define MORPHCACHE_RUNNER_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"

namespace morphcache {

/**
 * Seed of sweep cell `index` under base seed `base`: one SplitMix64
 * step over `base ^ index`. Pure function of its arguments, so a
 * cell's stream is identical whichever worker runs it — and
 * well-mixed, so neighbouring cells never see correlated streams
 * the way raw `base + index` seeding would give them.
 */
inline std::uint64_t
sweepCellSeed(std::uint64_t base, std::uint64_t index)
{
    std::uint64_t state = base ^ index;
    return splitMix64(state);
}

/**
 * Run `fn(i)` for every i in [0, n) on `jobs` threads (0 = one per
 * hardware thread, at least 1) and return the values in index
 * order, whatever order the cells finished in. The threads pull
 * indices from a shared counter and each cell writes only its own
 * slot. Every cell runs; once all threads have joined, the
 * lowest-index cell's exception, if any, is rethrown.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, unsigned jobs, Fn fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::optional<R>> values(n);
    std::vector<std::exception_ptr> errors(n);
    {
        std::atomic<std::size_t> next{0};
        // Leaving this block joins every thread (a jthread joins on
        // destruction, also when starting a later one throws), so the
        // slots are read only after every cell has run.
        std::vector<std::jthread> threads;
        for (std::size_t t = 0; t < std::min<std::size_t>(jobs, n); ++t) {
            threads.emplace_back([&]() {
                for (std::size_t i = next++; i < n; i = next++) {
                    try {
                        values[i].emplace(fn(i));
                    } catch (...) {
                        errors[i] = std::current_exception();
                    }
                }
            });
        }
    }

    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
        out.push_back(std::move(*values[i]));
    }
    return out;
}

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_SWEEP_HH
