#include "perf/allocmeter.hh"

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/bitops.hh"
#include "stats/profiler.hh"

namespace morphcache {

namespace {

// Process-wide tallies. Relaxed atomics: monotonic counters read
// only at snapshot time, never ordering anything (allowlisted
// `globals` entries in tools/mc_analyze_allow.txt, alongside the
// logging registry — telemetry only, never feeding simulated
// values).
std::atomic<bool> meterEnabled{false};
std::atomic<std::uint64_t> meterBytes{0};
std::atomic<std::uint64_t> meterCalls{0};
std::atomic<std::uint64_t> meterFrees{0};

} // namespace

AllocSnapshot
allocDelta(const AllocSnapshot &a, const AllocSnapshot &b)
{
    AllocSnapshot d;
    d.bytes = satSub(b.bytes, a.bytes);
    d.calls = satSub(b.calls, a.calls);
    d.frees = satSub(b.frees, a.frees);
    return d;
}

namespace AllocMeter {

bool
enabled()
{
    return meterEnabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    meterEnabled.store(on, std::memory_order_relaxed);
    // Plug the meter into the phase profiler the first time metering
    // turns on (idempotent; avoids static-initialization ordering).
    // From then on every ScopedPhaseTimer interval attributes the
    // heap traffic it observed to its phase, which is what lets the
    // allocation gate assert "the reference-processing loop allocated
    // nothing" rather than inferring it from whole-run totals.
    if (on) {
        Profiler::global().setAllocProbe(+[]() {
            const AllocSnapshot s = snapshot();
            return ProfAllocSample{s.bytes, s.calls, s.frees};
        });
    }
}

void
reset()
{
    meterBytes.store(0, std::memory_order_relaxed);
    meterCalls.store(0, std::memory_order_relaxed);
    meterFrees.store(0, std::memory_order_relaxed);
}

AllocSnapshot
snapshot()
{
    AllocSnapshot s;
    s.bytes = meterBytes.load(std::memory_order_relaxed);
    s.calls = meterCalls.load(std::memory_order_relaxed);
    s.frees = meterFrees.load(std::memory_order_relaxed);
    return s;
}

void
recordAlloc(std::uint64_t bytes)
{
    // The gate lives here, not in the callers: one relaxed load on
    // the disabled path, and every entry point (replacement
    // operators, tests) shares identical semantics.
    if (!enabled())
        return;
    meterBytes.fetch_add(bytes, std::memory_order_relaxed);
    meterCalls.fetch_add(1, std::memory_order_relaxed);
}

void
recordFree()
{
    if (!enabled())
        return;
    meterFrees.fetch_add(1, std::memory_order_relaxed);
}

} // namespace AllocMeter

namespace {

/** Shared allocation path of every replacement operator new. */
void *
meteredAlloc(std::size_t size) noexcept
{
    AllocMeter::recordAlloc(size);
    // malloc(0) may return nullptr, which operator new must not.
    return std::malloc(size ? size : 1);
}

void *
meteredAlignedAlloc(std::size_t size, std::size_t align) noexcept
{
    AllocMeter::recordAlloc(size);
    void *p = nullptr;
    if (::posix_memalign(&p, align, size ? size : align) != 0)
        return nullptr;
    return p;
}

void
meteredFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    AllocMeter::recordFree();
    std::free(p);
}

} // namespace

} // namespace morphcache

// ---------------------------------------------------------------
// Global operator new/delete replacement. These definitions are
// strong, so any binary that pulls this translation unit out of
// libmc_perf (by referencing any AllocMeter symbol) routes every
// heap allocation through the meter gate; binaries that never touch
// AllocMeter keep the stock libstdc++ operators untouched.
// ---------------------------------------------------------------

void *
operator new(std::size_t size)
{
    void *p = morphcache::meteredAlloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = morphcache::meteredAlloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return morphcache::meteredAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return morphcache::meteredAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p = morphcache::meteredAlignedAlloc(
        size, static_cast<std::size_t>(align));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *p = morphcache::meteredAlignedAlloc(
        size, static_cast<std::size_t>(align));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete[](void *p) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    morphcache::meteredFree(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    morphcache::meteredFree(p);
}
