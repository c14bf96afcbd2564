#include "sim/simulation.hh"

#include <algorithm>
#include <cstddef>

#include "common/error.hh"
#include "common/logging.hh"
#include "stats/metrics.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"

namespace morphcache {

void
intervalIpc(const std::vector<double> &cycles0,
            const std::vector<double> &instrs0,
            const std::vector<double> &cycles,
            const std::vector<double> &instrs, std::vector<double> &ipc)
{
    for (std::size_t c = 0; c < ipc.size(); ++c) {
        const double dcycles = cycles[c] - cycles0[c];
        ipc[c] = dcycles > 0.0 ? (instrs[c] - instrs0[c]) / dcycles
                               : 0.0;
    }
}

Simulation::Simulation(MemorySystem &system, Workload &workload,
                       const SimParams &params)
    : system_(system), workload_(workload), params_(params),
      cycles_(workload.numCores(), 0.0),
      instrs_(workload.numCores(), 0.0)
{
    if (system.numCores() < workload.numCores()) {
        throw ConfigError("memory system models fewer cores than the "
                          "workload issues from");
    }
    if (params_.refsPerEpochPerCore == 0)
        throw ConfigError("epoch length must be nonzero references");

    // Pre-size everything an epoch touches so the steady-state run
    // loop never allocates: recorded slots, per-epoch baselines,
    // the warmup metrics sink, and (capacity only — the serialized
    // empty-until-warmup-done size semantics stay) the baselines.
    const std::uint32_t cores = workload.numCores();
    recorded_.resize(params_.epochs);
    for (EpochMetrics &slot : recorded_) {
        slot.ipc.resize(cores);
        slot.misses.resize(cores);
    }
    warmupScratch_.ipc.resize(cores);
    warmupScratch_.misses.resize(cores);
    epochCycles0_.resize(cores);
    epochInstrs0_.resize(cores);
    epochMisses0_.resize(cores);
    baselineCycles_.reserve(cores);
    baselineInstrs_.reserve(cores);
}

void
Simulation::runEpochInto(EpochId epoch, EpochMetrics &metrics)
{
    const std::uint32_t cores = workload_.numCores();

    std::copy(cycles_.begin(), cycles_.end(),
              epochCycles0_.begin());
    std::copy(instrs_.begin(), instrs_.end(),
              epochInstrs0_.begin());
    for (std::uint32_t c = 0; c < cores; ++c) {
        epochMisses0_[c] =
            system_.coreStats(static_cast<CoreId>(c)).misses();
    }

    if (tracer_)
        tracer_->setEpoch(epoch);

    workload_.beginEpoch(epoch);
    {
        ScopedPhaseTimer timer(ProfPhase::RefProcessing);
        runEpochAccesses(system_, workload_,
                         params_.refsPerEpochPerCore, cycles_,
                         instrs_);
    }
    if (tracer_) {
        // Simulated time = the furthest core clock; every decision
        // event this boundary emits carries it.
        double max_cycles = 0.0;
        for (double c : cycles_)
            max_cycles = std::max(max_cycles, c);
        tracer_->setTime(static_cast<std::uint64_t>(max_cycles));
    }
    {
        ScopedPhaseTimer timer(ProfPhase::EpochDecision);
        system_.epochBoundary();
    }

    metrics.ipc.resize(cores);
    metrics.misses.resize(cores);
    intervalIpc(epochCycles0_, epochInstrs0_, cycles_, instrs_,
                metrics.ipc);
    for (std::uint32_t c = 0; c < cores; ++c) {
        metrics.misses[c] =
            system_.coreStats(static_cast<CoreId>(c)).misses() -
            epochMisses0_[c];
    }
    metrics.throughput = throughput(metrics.ipc);

    if (tracer_ && tracer_->enabled()) {
        std::uint64_t total_misses = 0;
        for (std::uint64_t m : metrics.misses)
            total_misses += m;
        TraceEvent ev("epoch");
        ev.f64("throughput", metrics.throughput)
            .u64("misses", total_misses)
            .u64("refsPerCore", params_.refsPerEpochPerCore);
        tracer_->emit(ev);
    }
}

void
Simulation::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    system_.setTracer(tracer);
}

void
Simulation::markWarmupDone()
{
    warmupDone_ = true;
    baselineCycles_ = cycles_;
    baselineInstrs_ = instrs_;
}

void
Simulation::stepEpoch()
{
    if (done())
        return;
    if (!warmupDone_ && nextEpoch_ < params_.warmupEpochs) {
        runEpochInto(nextEpoch_++, warmupScratch_);
        if (nextEpoch_ == params_.warmupEpochs)
            markWarmupDone();
        return;
    }
    if (!warmupDone_)
        markWarmupDone();
    const EpochId id = nextEpoch_++;
    runEpochInto(id, recorded_[recordedCount_]);
    ++recordedCount_;
    if (registry_)
        registry_->snapshotEpoch(id);
}

bool
Simulation::done() const
{
    return nextEpoch_ >= params_.warmupEpochs &&
           recordedCount_ >= params_.epochs;
}

RunResult
Simulation::finish() const
{
    const std::uint32_t cores = workload_.numCores();
    RunResult result;
    result.epochs.assign(recorded_.begin(),
                         recorded_.begin() +
                             static_cast<std::ptrdiff_t>(
                                 recordedCount_));

    // With zero recorded epochs the baselines were never captured;
    // the current clocks give the same all-zero deltas.
    const std::vector<double> &cycles_start =
        warmupDone_ ? baselineCycles_ : cycles_;
    const std::vector<double> &instr_start =
        warmupDone_ ? baselineInstrs_ : instrs_;

    result.avgIpc.resize(cores);
    intervalIpc(cycles_start, instr_start, cycles_, instrs_,
                result.avgIpc);
    double max_cycles = 0.0;
    double total_instr = 0.0;
    for (std::uint32_t c = 0; c < cores; ++c) {
        max_cycles = std::max(max_cycles, cycles_[c] - cycles_start[c]);
        total_instr += instrs_[c] - instr_start[c];
    }
    result.avgThroughput = throughput(result.avgIpc);
    result.performance =
        max_cycles > 0.0 ? total_instr / max_cycles : 0.0;
    return result;
}

RunResult
Simulation::run()
{
    while (!done())
        stepEpoch();
    return finish();
}

template <class Ar, class Self>
void
Simulation::checkpointFields(Ar &ar, Self &self)
{
    ar.fixedVec("core clock count", self.cycles_);
    ar.fixedVec("instruction counter count", self.instrs_);
    ar.u64(self.nextEpoch_);
    ar.b(self.warmupDone_);
    // Captured when warmup ends; empty before.
    const std::size_t baselines =
        self.warmupDone_ ? self.cycles_.size() : 0;
    ar.fixedVec("warmup baseline size", self.baselineCycles_,
                baselines);
    ar.fixedVec("warmup baseline size", self.baselineInstrs_,
                baselines);
    // Only the filled prefix of recorded_: a count, then the
    // records.
    ar.u64AtMost("recorded epoch count", self.recordedCount_,
                 self.params_.epochs);
    for (std::uint64_t e = 0; e < self.recordedCount_; ++e) {
        auto &metrics = self.recorded_[e];
        ar.fixedVec("recorded epoch IPC count", metrics.ipc);
        ar.f64(metrics.throughput);
        ar.fixedVec("recorded epoch miss count", metrics.misses);
    }
}

void
Simulation::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
Simulation::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

} // namespace morphcache
