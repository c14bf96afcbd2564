/**
 * @file
 * Google-benchmark microbenchmarks of the hot components: slice
 * probes, group lookups, ACFV updates, arbiter cycles, and
 * generator throughput. These are engineering benchmarks for the
 * simulator itself (the paper experiments live in the other bench
 * binaries).
 */

#include <benchmark/benchmark.h>

#include "acf/acfv.hh"
#include "hierarchy/cache_level.hh"
#include "hierarchy/hierarchy.hh"
#include "interconnect/arbiter.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"
#include "workload/generator.hh"

using namespace morphcache;

namespace {

void
BM_SliceProbe(benchmark::State &state)
{
    SliceStore store(1, CacheGeometry{256 * 1024, 8, 64});
    const CacheSlice slice = store.slice(0);
    for (Addr line = 0; line < 4096; ++line) {
        const auto set = slice.setIndex(line);
        slice.fill(set, slice.victimWay(set), line, false, line);
    }
    Addr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(slice.probe(line));
        line = (line + 97) % 8192;
    }
}
BENCHMARK(BM_SliceProbe);

void
BM_GroupLookup(benchmark::State &state)
{
    LevelParams params;
    params.numSlices = 16;
    params.sliceGeom = CacheGeometry{256 * 1024, 8, 64};
    CacheLevelModel level(params);
    level.configure(allShared(16)); // worst case: 128-way probe
    for (Addr line = 0; line < 32768; ++line)
        level.insert(static_cast<CoreId>(line % 16), line, false);
    Addr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(level.lookup(0, line, 0));
        line = (line + 97) % 65536;
    }
}
BENCHMARK(BM_GroupLookup);

void
BM_AcfvUpdate(benchmark::State &state)
{
    AcfvBank bank(16, 16, 128, HashKind::Xor);
    Addr line = 0;
    for (auto _ : state) {
        bank.set(static_cast<CoreId>(line % 16),
                 static_cast<SliceId>(line / 16 % 16), line);
        line += 31;
        benchmark::DoNotOptimize(bank);
    }
}
BENCHMARK(BM_AcfvUpdate);

void
BM_ArbiterTreeCycle(benchmark::State &state)
{
    ArbiterTree tree(16);
    tree.configure(std::vector<std::uint32_t>(16, 0));
    std::vector<bool> req(16, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.arbitrate(req));
}
BENCHMARK(BM_ArbiterTreeCycle);

void
BM_GeneratorNext(benchmark::State &state)
{
    GeneratorParams params;
    CoreRefGenerator gen(profileByName("gcc"), 0, params, 7);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_GeneratorNext);

void
BM_HierarchyAccess(benchmark::State &state)
{
    Hierarchy hierarchy(HierarchyParams::defaultParams(16));
    GeneratorParams params;
    CoreRefGenerator gen(profileByName("gcc"), 0, params, 7);
    Cycle now = 0;
    for (auto _ : state) {
        const auto result = hierarchy.access(gen.next(), now);
        now += result.latency;
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_HierarchyAccess);

// --- Observability overhead gates ------------------------------
//
// The acceptance bar for the stats/tracing/profiling subsystem is
// <2% added cost on the hot path with everything disabled. Compare
// these against their plain counterparts above.

void
BM_HierarchyAccessObservedDisabled(benchmark::State &state)
{
    // Identical to BM_HierarchyAccess, but with the full disabled
    // observability stack in the loop: a registry sampling the
    // hierarchy (callback-bound, so nothing on the access path), a
    // disabled tracer gate, and a disabled scoped phase timer.
    Hierarchy hierarchy(HierarchyParams::defaultParams(16));
    StatsRegistry registry;
    hierarchy.registerStats(registry);
    Profiler::global().setEnabled(false);
    Tracer tracer(nullptr);
    GeneratorParams params;
    CoreRefGenerator gen(profileByName("gcc"), 0, params, 7);
    Cycle now = 0;
    for (auto _ : state) {
        ScopedPhaseTimer timer(ProfPhase::RefProcessing);
        if (tracer.enabled()) {
            TraceEvent ev("access");
            tracer.emit(ev);
        }
        const auto result = hierarchy.access(gen.next(), now);
        now += result.latency;
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_HierarchyAccessObservedDisabled);

void
BM_ScopedTimerDisabled(benchmark::State &state)
{
    Profiler::global().setEnabled(false);
    for (auto _ : state) {
        ScopedPhaseTimer timer(ProfPhase::RefProcessing);
        benchmark::DoNotOptimize(timer);
    }
}
BENCHMARK(BM_ScopedTimerDisabled);

void
BM_TracerDisabledGate(benchmark::State &state)
{
    Tracer tracer(nullptr);
    std::uint64_t emitted = 0;
    for (auto _ : state) {
        if (tracer.enabled()) {
            TraceEvent ev("gate");
            ev.u64("n", emitted);
            tracer.emit(ev);
            ++emitted;
        }
        benchmark::DoNotOptimize(emitted);
    }
}
BENCHMARK(BM_TracerDisabledGate);

void
BM_RegistrySnapshot(benchmark::State &state)
{
    // Epoch-granularity cost (paid once per epoch, not per access):
    // sampling every bound stat of a 16-core hierarchy.
    Hierarchy hierarchy(HierarchyParams::defaultParams(16));
    StatsRegistry registry;
    hierarchy.registerStats(registry);
    std::uint64_t epoch = 0;
    for (auto _ : state)
        registry.snapshotEpoch(epoch++);
}
BENCHMARK(BM_RegistrySnapshot);

} // namespace

BENCHMARK_MAIN();
