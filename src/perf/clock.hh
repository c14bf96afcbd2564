/**
 * @file
 * The sanctioned wall-clock API.
 *
 * Simulated behaviour never reads real time (DESIGN.md section 9),
 * but telemetry legitimately does: the phase profiler, lease
 * deadlines and manifest event timestamps all measure or stamp
 * wall-clock time. Those reads are funnelled through this one
 * translation unit so mc_analyze's `wall-clock` check can forbid
 * raw clock primitives everywhere else in src/, tools/, and bench/
 * — a new clock read is a deliberate, reviewed addition to the
 * allowlist, not an accident that quietly couples output
 * bytes to the scheduler.
 */

#ifndef MORPHCACHE_PERF_CLOCK_HH
#define MORPHCACHE_PERF_CLOCK_HH

#include <cstdint>

namespace morphcache {

/**
 * Monotonic nanoseconds since an arbitrary epoch (interval
 * measurement: phase timing, progress rates).
 * Never jumps backwards; unaffected by NTP slew of the civil clock.
 */
std::uint64_t perfNowNs();

/** Monotonic seconds since an arbitrary epoch. */
double perfNowSec();

/**
 * Civil time as seconds since the Unix epoch (provenance stamps:
 * manifest event timestamps). Comparable
 * across processes and hosts; may step under clock adjustment, so
 * use perfNowNs() for measuring intervals within one process.
 */
double unixNowSec();

} // namespace morphcache

#endif // MORPHCACHE_PERF_CLOCK_HH
