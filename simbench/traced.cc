/**
 * @file
 * The traced cell runner: decorators over the public Workload and
 * MemorySystem interfaces that time each layer while the real
 * Simulation drives the core model, so the simulated bytes are those
 * of the untraced run.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "perf/allocmeter.hh"
#include "runner/run_factory.hh"
#include "simbench.hh"
#include "stats/profiler.hh"

namespace simbench {

using namespace morphcache;

TimerCost
calibrateTimer()
{
    // Minimum over blocks: preemption only ever inflates a block.
    constexpr int blocks = 20;
    constexpr int pairs = 20000;
    double best_inside = 1e30;
    double best_pair = 1e30;
    for (int b = 0; b < blocks; ++b) {
        std::int64_t inside = 0;
        const std::int64_t start = nowNs();
        for (int i = 0; i < pairs; ++i) {
            const std::int64_t t0 = nowNs();
            const std::int64_t t1 = nowNs();
            inside += t1 - t0;
        }
        const std::int64_t end = nowNs();
        best_inside =
            std::min(best_inside, static_cast<double>(inside) / pairs);
        best_pair = std::min(best_pair,
                             static_cast<double>(end - start) / pairs);
    }
    TimerCost cost;
    cost.insideNs = best_inside;
    cost.outsideNs = std::max(0.0, best_pair - best_inside);
    return cost;
}

namespace {

/**
 * Serves each epoch's references from a block generated in full at
 * beginEpoch, in the round-robin order the Simulation consumes them,
 * so generation is timed apart from the hierarchy. Generators are
 * per-core and the order is unchanged, so the stream is identical.
 */
class BufferedWorkload final : public Workload
{
  public:
    BufferedWorkload(Workload &inner, std::uint64_t refs_per_core)
        : inner_(inner), refsPerCore_(refs_per_core),
          block_(refs_per_core * inner.numCores())
    {
    }

    MemAccess
    next(CoreId core) override
    {
        if (pos_ >= block_.size()) {
            diverged_ = true;
            return inner_.next(core);
        }
        const MemAccess &access = block_[pos_++];
        if (access.core != core)
            diverged_ = true;
        return access;
    }

    void
    beginEpoch(EpochId epoch) override
    {
        generate_.startNs = nowNs();
        inner_.beginEpoch(epoch);
        generate_.beginNs = nowNs() - generate_.startNs;
        const std::uint32_t cores = inner_.numCores();
        std::size_t i = 0;
        for (std::uint64_t r = 0; r < refsPerCore_; ++r)
            for (std::uint32_t c = 0; c < cores; ++c)
                block_[i++] = inner_.next(static_cast<CoreId>(c));
        if (corrupt_ && epoch == 0) {
            // One reference moved to a line nothing else touches.
            block_[block_.size() / 2].addr ^= Addr{1} << 46;
        }
        pos_ = 0;
        generate_.endNs = nowNs();
    }

    bool
    sharedAddressSpace() const override
    {
        return inner_.sharedAddressSpace();
    }

    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::unique_ptr<Workload> clone() const override
    {
        return inner_.clone();
    }
    std::string name() const override { return inner_.name(); }

    /** Alter one reference of the first epoch's block. */
    void corrupt() { corrupt_ = true; }

    /** A reference was served out of order or past the block. */
    bool diverged() const { return diverged_; }

    struct Generate
    {
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t beginNs = 0;
    };

    /** Timing of the most recent beginEpoch. */
    const Generate &lastGenerate() const { return generate_; }

  private:
    Workload &inner_;
    std::uint64_t refsPerCore_;
    std::vector<MemAccess> block_;
    std::size_t pos_ = 0;
    bool corrupt_ = false;
    bool diverged_ = false;
    Generate generate_;
};

/**
 * Times every access (per ServedBy class) and every epoch boundary
 * of the system it wraps, forwarding everything else.
 */
class TimedSystem final : public MemorySystem
{
  public:
    explicit TimedSystem(MemorySystem &inner) : inner_(inner) {}

    AccessResult
    access(const MemAccess &access, Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        const AccessResult result = inner_.access(access, now);
        const std::int64_t t1 = nowNs();
        if (epoch_.count == 0)
            epoch_.firstNs = t0;
        epoch_.lastNs = t1;
        ++epoch_.count;
        epoch_.rawNs += t1 - t0;
        const auto cls = static_cast<std::size_t>(result.servedBy);
        if (cls < numServedClasses) {
            ++served_[cls];
            servedRawNs_[cls] += t1 - t0;
        }
        return result;
    }

    void
    epochBoundary() override
    {
        boundary_.startNs = nowNs();
        inner_.epochBoundary();
        boundary_.endNs = nowNs();
    }

    const CoreStats &
    coreStats(CoreId core) const override
    {
        return inner_.coreStats(core);
    }

    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::string name() const override { return inner_.name(); }
    void
    registerStats(StatsRegistry &registry) override
    {
        inner_.registerStats(registry);
    }
    void setTracer(Tracer *tracer) override { inner_.setTracer(tracer); }

    struct Accesses
    {
        std::int64_t firstNs = 0;
        std::int64_t lastNs = 0;
        std::int64_t rawNs = 0;
        std::uint64_t count = 0;
    };

    struct Boundary
    {
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** This epoch's accesses; resets the per-epoch accumulator. */
    Accesses
    takeEpochAccesses()
    {
        const Accesses taken = epoch_;
        epoch_ = Accesses{};
        return taken;
    }

    const Boundary &lastBoundary() const { return boundary_; }
    std::uint64_t served(std::size_t cls) const { return served_[cls]; }
    std::int64_t
    servedRawNs(std::size_t cls) const
    {
        return servedRawNs_[cls];
    }

  private:
    MemorySystem &inner_;
    Accesses epoch_;
    Boundary boundary_;
    std::uint64_t served_[numServedClasses] = {};
    std::int64_t servedRawNs_[numServedClasses] = {};
};

Span
makeSpan(std::uint32_t trace, std::uint32_t id, std::uint32_t parent,
         const char *name, std::int64_t start, std::int64_t end)
{
    Span span;
    span.trace = trace;
    span.id = id;
    span.parent = parent;
    span.name = name;
    span.startNs = start;
    span.endNs = end;
    span.busyNs = end - start;
    return span;
}

} // namespace

CellOutcome
runCellTraced(const RunSpec &spec, const TimerCost &timer, SpanLog &log,
              bool corrupt)
{
    CellOutcome out;
    out.label = cellLabel(spec);
    const std::uint32_t trace = log.newTrace();
    const std::uint32_t run_id = log.newId();
    Profiler &profiler = Profiler::global();
    try {
        const std::int64_t t0 = nowNs();
        BuiltRun built = buildRun(spec);
        BufferedWorkload workload(*built.workload,
                                  built.sim.refsPerEpochPerCore);
        TimedSystem system(*built.system);
        Simulation sim(system, workload, built.sim);
        const std::int64_t t1 = nowNs();
        log.add(makeSpan(trace, log.newId(), run_id, "setup", t0, t1));
        if (corrupt)
            workload.corrupt();

        LayerTimes &layers = out.layers;
        profiler.setEnabled(true);
        const ProfSnapshot prof0 = profiler.snapshot();
        AllocMeter::setEnabled(true);
        const AllocSnapshot alloc0 = AllocMeter::snapshot();
        std::vector<std::int64_t> calib;
        calib.reserve(built.sim.warmupEpochs + built.sim.epochs);
        std::int64_t calib_ns = 0;
        const std::int64_t loop0 = nowNs();
        while (!sim.done()) {
            calib.push_back(calibrationLoopNs());
            calib_ns += calib.back();
            const std::int64_t e0 = nowNs();
            sim.stepEpoch();
            const std::int64_t e1 = nowNs();

            const std::uint32_t epoch_id = log.newId();
            const BufferedWorkload::Generate &gen =
                workload.lastGenerate();
            const TimedSystem::Accesses acc =
                system.takeEpochAccesses();
            const TimedSystem::Boundary &bnd = system.lastBoundary();

            Span gen_span = makeSpan(trace, log.newId(), epoch_id,
                                     "workload.generate", gen.startNs,
                                     gen.endNs);
            const auto timer_ns = static_cast<std::int64_t>(
                static_cast<double>(acc.count) * timer.insideNs);
            Span acc_span = makeSpan(trace, log.newId(), epoch_id,
                                     "hierarchy.access", acc.firstNs,
                                     acc.lastNs);
            acc_span.busyNs = acc.rawNs - timer_ns;
            acc_span.count = acc.count;
            Span bnd_span = makeSpan(trace, log.newId(), epoch_id,
                                     "system.epoch_boundary",
                                     bnd.startNs, bnd.endNs);
            Span epoch = makeSpan(trace, epoch_id, run_id, "epoch", e0,
                                  e1);

            // Self time: the parts of the epoch no child covers, plus
            // the timer cost charged inside the access intervals. The
            // children run one after another, so every gap is
            // non-negative and self plus children is the duration.
            const std::int64_t gaps[] = {
                gen.startNs - e0, acc.firstNs - gen.endNs,
                acc.lastNs - acc.firstNs - acc.rawNs,
                bnd.startNs - acc.lastNs, e1 - bnd.endNs};
            bool ordered = acc.count > 0;
            epoch.selfNs = timer_ns;
            for (std::int64_t gap : gaps) {
                ordered = ordered && gap >= 0;
                epoch.selfNs += gap;
            }
            const bool nested =
                ordered && epoch.selfNs + gen_span.busyNs +
                                   acc_span.busyNs + bnd_span.busyNs ==
                               epoch.busyNs;
            if (!nested && out.ok) {
                out.ok = false;
                out.error = "epoch span children do not nest";
            }
            log.add(epoch);
            log.add(gen_span);
            log.add(acc_span);
            log.add(bnd_span);

            ++layers.epochs;
            layers.beginEpochNs += static_cast<double>(gen.beginNs);
            layers.generateNs +=
                static_cast<double>(gen_span.busyNs - gen.beginNs);
            layers.boundaryNs += static_cast<double>(bnd_span.busyNs);
            layers.driverNs += static_cast<double>(epoch.selfNs) -
                               static_cast<double>(acc.count) *
                                   timer.outsideNs;
        }
        const std::int64_t loop1 = nowNs();
        const AllocSnapshot alloc1 = AllocMeter::snapshot();
        AllocMeter::setEnabled(false);
        const ProfSnapshot prof =
            profDelta(prof0, profiler.snapshot());
        profiler.setEnabled(false);

        const RunResult result = sim.finish();
        const std::int64_t t2 = nowNs();
        log.add(makeSpan(trace, run_id, 0, "run", t0, t2));

        for (std::size_t cls = 0; cls < numServedClasses; ++cls) {
            layers.servedNs[cls] =
                static_cast<double>(system.servedRawNs(cls)) -
                static_cast<double>(system.served(cls)) *
                    timer.insideNs;
            layers.accessNs += layers.servedNs[cls];
        }
        layers.reconfigApplyNs = static_cast<double>(
            prof[ProfPhase::ReconfigApply].ns);

        out.hostScale = hostScale(std::move(calib));
        for (double *ns :
             {&layers.beginEpochNs, &layers.generateNs, &layers.accessNs,
              &layers.boundaryNs, &layers.reconfigApplyNs,
              &layers.driverNs})
            *ns *= out.hostScale;
        for (double &ns : layers.servedNs)
            ns *= out.hostScale;
        const double scale = out.hostScale / 1e9;
        out.setupS = static_cast<double>(t1 - t0) * scale;
        out.loopS = static_cast<double>(loop1 - loop0 - calib_ns) * scale;
        out.runS = static_cast<double>(t2 - t0 - calib_ns) * scale;
        out.refs = static_cast<std::uint64_t>(built.sim.epochs +
                                              built.sim.warmupEpochs) *
                   built.sim.refsPerEpochPerCore *
                   built.workload->numCores();
        out.counters["sim.loopAllocCalls"] =
            allocDelta(alloc0, alloc1).calls;
        recordOutcome(out, *built.system, result, built.sharedSpace);

        if (out.ok && workload.diverged()) {
            out.ok = false;
            out.error = "replayed stream diverged from the block";
        }
        for (std::size_t cls = 0; cls < numServedClasses && out.ok;
             ++cls) {
            const std::string key =
                std::string("served.") + servedClassName(cls);
            if (system.served(cls) != out.counters[key]) {
                out.ok = false;
                out.error = "decorator counted " +
                            std::to_string(system.served(cls)) + " " +
                            key + " accesses, CoreStats " +
                            std::to_string(out.counters[key]);
            }
        }
    } catch (const std::exception &e) {
        profiler.setEnabled(false);
        AllocMeter::setEnabled(false);
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

} // namespace simbench
