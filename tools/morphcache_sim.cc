/**
 * @file
 * morphcache_sim — command-line driver for the simulator.
 *
 * Runs any workload under any scheme and reports throughput, IPCs,
 * and reconfiguration activity; optionally dumps per-epoch series
 * as CSV.
 *
 * Usage:
 *   morphcache_sim [options]
 *     --workload mix:<1..12> | parsec:<name> | trace:<file>
 *                                        (default mix:8)
 *     --scheme morph | static:<x>:<y>:<z> | pipp | dsr | ucp
 *                                        (default morph)
 *     --cores N          core count (default 16)
 *     --epochs N         recorded epochs (default 12)
 *     --refs N           references per core per epoch (default 24000)
 *     --seed N           RNG seed (default 42)
 *     --paper-scale      Table 3 capacities verbatim
 *     --csv FILE         dump per-epoch throughput/misses as CSV
 *     --record FILE      record the workload to a trace file and exit
 *
 * Grids of runs (mix × seed sweeps) run through mc_campaign.
 *
 * Checkpoint/restore:
 *     --checkpoint FILE  write checkpoints to FILE (atomic
 *                        write-then-rename; previous kept as .prev)
 *     --restore FILE     restore from FILE (falls back to .prev)
 *                        before running; resumed output is
 *                        byte-identical to an uninterrupted run
 *     --ckpt-every N     checkpoint every N recorded epochs
 *                        (default: only at interrupt/completion)
 *     SIGINT/SIGTERM checkpoint in-flight state and exit 75
 *     (resumable); rerun with --restore to finish.
 *
 * Observability options:
 *     --trace FILE       decision-provenance event trace
 *     --trace-format F   jsonl (default) | chrome (about://tracing)
 *     --trace-summary FILE   summarize a JSONL trace (per-epoch
 *                            event counts) and exit
 *     --stats-out FILE   dump the stats registry; .csv extension
 *                        selects CSV, anything else JSON
 *     --stats-epochs     print the per-epoch registry CSV to stdout
 *     --profile          enable phase profiling and report it
 *     -v / -q            verbose / quiet logging (MC_LOG_LEVEL env
 *                        sets the default)
 *
 * Robustness options (morph scheme):
 *     --check off|log|recover|abort   invariant-check policy
 *                                        (default off)
 *     --quarantine N     clean epochs held in the all-private
 *                        quarantine topology before re-entering
 *                        adaptation (default 4)
 *     --inject-seed N        fault-injection RNG seed (default 1)
 *     --inject-acfv N        ACFV bits flipped per level per epoch
 *     --inject-class P       probability a classification inverts
 *     --inject-illegal P     probability an epoch's proposal is
 *                            corrupted into an illegal topology
 *     --inject-bus-drop P    probability a bus grant is dropped
 *     --inject-bus-delay P   probability a bus grant is delayed
 *
 * Examples:
 *   morphcache_sim --workload mix:8 --scheme morph
 *   morphcache_sim --workload parsec:dedup --scheme static:4:4:1
 *   morphcache_sim --workload mix:1 --record mix01.mctrace
 *   morphcache_sim --workload trace:mix01.mctrace --scheme dsr
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/fault.hh"
#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numparse.hh"
#include "runner/run_factory.hh"
#include "sim/simulation.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"
#include "stats/report.hh"
#include "stats/tracing.hh"
#include "workload/trace.hh"

using namespace morphcache;

namespace {

struct Options
{
    /** Everything that changes simulated behaviour. */
    RunSpec spec;
    std::string csvPath;
    std::string recordPath;
    std::string tracePath;
    std::string traceFormat = "jsonl";
    std::string traceSummaryPath;
    std::string statsOutPath;
    bool statsEpochs = false;
    bool profile = false;
    /** Single-run: write checkpoints to this path. */
    std::string checkpointPath;
    /** Single-run: restore from this checkpoint chain first. */
    std::string restorePath;
    /** Checkpoint every N recorded epochs (0 = end/interrupt only). */
    std::uint32_t ckptEvery = 0;
};

/**
 * Captures warn/inform/verbose messages as structured "log" trace
 * events while still printing them to stderr.
 */
class TraceLogSink : public LogSink
{
  public:
    explicit TraceLogSink(Tracer &tracer) : tracer_(tracer) {}

    void
    message(const char *kind, const char *text) override
    {
        logToStderr(kind, text);
        if (tracer_.enabled()) {
            TraceEvent ev("log");
            ev.str("kind", kind).str("text", text);
            tracer_.emit(ev);
        }
    }

  private:
    Tracer &tracer_;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload mix:N|parsec:NAME|trace:FILE]"
                 " [--scheme morph|static:X:Y:Z|pipp|dsr|ucp]\n"
                 "          [--cores N] [--epochs N] [--refs N] "
                 "[--seed N] [--paper-scale] [--csv FILE]\n"
                 "          [--record FILE]\n"
                 "          [--check off|log|recover|abort] "
                 "[--quarantine N] [--inject-seed N]\n"
                 "          [--inject-acfv N] [--inject-class P] "
                 "[--inject-illegal P]\n"
                 "          [--inject-bus-drop P] "
                 "[--inject-bus-delay P]\n"
                 "          [--trace FILE] [--trace-format "
                 "jsonl|chrome] [--trace-summary FILE]\n"
                 "          [--stats-out FILE] [--stats-epochs] "
                 "[--profile] [-v] [-q]\n"
                 "          [--checkpoint FILE] [--restore FILE] "
                 "[--ckpt-every N]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both `--opt value` and `--opt=value`.
        std::string eq_value;
        bool has_eq = false;
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                eq_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_eq = true;
            }
        }
        auto value = [&]() -> std::string {
            if (has_eq)
                return eq_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.spec.workload = value();
        } else if (arg == "--scheme") {
            opts.spec.scheme = value();
        } else if (arg == "--cores") {
            opts.spec.cores = flagNumber<std::uint32_t>("--cores", value());
        } else if (arg == "--epochs") {
            opts.spec.epochs = flagNumber<std::uint32_t>("--epochs", value());
        } else if (arg == "--refs") {
            opts.spec.refs =
                flagNumber<std::uint64_t>("--refs", value());
        } else if (arg == "--seed") {
            opts.spec.seed =
                flagNumber<std::uint64_t>("--seed", value());
        } else if (arg == "--paper-scale") {
            opts.spec.paperScale = true;
        } else if (arg == "--csv") {
            opts.csvPath = value();
        } else if (arg == "--record") {
            opts.recordPath = value();
        } else if (arg == "--check") {
            opts.spec.checkPolicy = value();
        } else if (arg == "--quarantine") {
            opts.spec.quarantine =
                flagNumber<std::uint32_t>("--quarantine", value());
        } else if (arg == "--inject-seed") {
            opts.spec.faults.seed =
                flagNumber<std::uint64_t>("--inject-seed", value());
        } else if (arg == "--inject-acfv") {
            opts.spec.faults.acfvFlipsPerEpoch =
                flagNumber<std::uint32_t>("--inject-acfv", value());
        } else if (arg == "--inject-class") {
            opts.spec.faults.classificationFlipChance =
                flagNumber<double>("--inject-class", value());
        } else if (arg == "--inject-illegal") {
            opts.spec.faults.illegalTopologyChance =
                flagNumber<double>("--inject-illegal", value());
        } else if (arg == "--inject-bus-drop") {
            opts.spec.faults.busDropChance =
                flagNumber<double>("--inject-bus-drop", value());
        } else if (arg == "--inject-bus-delay") {
            opts.spec.faults.busDelayChance =
                flagNumber<double>("--inject-bus-delay", value());
        } else if (arg == "--checkpoint") {
            opts.checkpointPath = value();
        } else if (arg == "--restore") {
            opts.restorePath = value();
        } else if (arg == "--ckpt-every") {
            opts.ckptEvery =
                flagNumber<std::uint32_t>("--ckpt-every", value());
        } else if (arg == "--trace") {
            opts.tracePath = value();
        } else if (arg == "--trace-format") {
            opts.traceFormat = value();
            if (opts.traceFormat != "jsonl" &&
                opts.traceFormat != "chrome") {
                std::fprintf(stderr,
                             "bad --trace-format '%s' (expected "
                             "jsonl or chrome)\n",
                             opts.traceFormat.c_str());
                usage(argv[0]);
            }
        } else if (arg == "--trace-summary") {
            opts.traceSummaryPath = value();
        } else if (arg == "--stats-out") {
            opts.statsOutPath = value();
        } else if (arg == "--stats-epochs") {
            opts.statsEpochs = true;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "-v" || arg == "--verbose") {
            setLogLevel(LogLevel::Verbose);
        } else if (arg == "-q" || arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        }
    }
    return opts;
}

/**
 * SIGINT/SIGTERM raise the ckpt interrupt flag; the run loop notices
 * it at the next epoch boundary, flushes its checkpoint, and exits
 * with ckptResumableExit.
 */
extern "C" void
handleInterruptSignal(int)
{
    requestCkptInterrupt();
}

} // namespace

int
run(const Options &opts)
{
    if (!opts.traceSummaryPath.empty()) {
        const TraceSummary summary =
            summarizeTraceFile(opts.traceSummaryPath);
        std::printf("%s", formatTraceSummary(summary).c_str());
        return 0;
    }

    BuiltRun built = buildRun(opts.spec);
    Workload *workload = built.workload.get();
    MemorySystem *system = built.system.get();
    const MorphCacheSystem *morph =
        dynamic_cast<const MorphCacheSystem *>(system);

    if (!opts.recordPath.empty()) {
        const Trace trace = recordTrace(*workload, opts.spec.epochs,
                                        opts.spec.refs);
        writeTrace(trace, opts.recordPath);
        std::printf("recorded %llu references (%u epochs x %u "
                    "cores) to %s\n",
                    static_cast<unsigned long long>(
                        trace.totalReferences()),
                    opts.spec.epochs, workload->numCores(),
                    opts.recordPath.c_str());
        return 0;
    }

    const std::string config_hash =
        configHashHex(describe(opts.spec));

    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = opts.spec.seed;
    meta.configHash = config_hash;
    registry.setMeta(meta);
    system->registerStats(registry);

    if (opts.profile) {
        Profiler::global().setEnabled(true);
        Profiler::global().reset();
    }
    Profiler::global().registerStats(registry);

    // Checkpoints resume only the JSONL trace format (the Chrome
    // sink buffers an array it cannot reopen mid-stream).
    const bool jsonl_trace =
        !opts.tracePath.empty() && opts.traceFormat == "jsonl";
    const bool want_ckpt =
        !opts.checkpointPath.empty() || !opts.restorePath.empty();
    if (want_ckpt && !opts.tracePath.empty() && !jsonl_trace)
        fatal("--checkpoint/--restore require --trace-format jsonl");

    // The sink is created *after* restore so a resumed JSONL trace
    // can truncate back to the checkpointed byte offset.
    std::unique_ptr<TraceSink> sink;
    Tracer tracer;
    TraceLogSink log_sink(tracer);

    Simulation simulation(*system, *workload, built.sim);
    simulation.setRegistry(&registry);

    CkptRunState state;
    state.simulation = &simulation;
    state.system = system;
    state.workload = workload;
    state.registry = &registry;
    if (jsonl_trace)
        state.tracer = &tracer;

    std::uint64_t last_ckpt = 0;
    if (!opts.restorePath.empty()) {
        const RestoreOutcome outcome =
            restoreCheckpointChain(opts.restorePath, opts.spec,
                                   state);
        last_ckpt = outcome.epochsCompleted;
        inform("restored %llu recorded epochs from %s",
               static_cast<unsigned long long>(
                   outcome.epochsCompleted),
               outcome.pathUsed.c_str());
        if (jsonl_trace) {
            sink = std::make_unique<JsonlTraceSink>(
                opts.tracePath, outcome.traceByteOffset);
        }
    } else if (!opts.tracePath.empty()) {
        if (opts.traceFormat == "chrome")
            sink = std::make_unique<ChromeTraceSink>(opts.tracePath);
        else
            sink = std::make_unique<JsonlTraceSink>(opts.tracePath);
    }
    tracer.setSink(sink.get());
    if (sink) {
        setLogSink(&log_sink);
        simulation.setTracer(&tracer);
    }

    // Checkpoints default to the restore path so `--restore X`
    // alone keeps extending the same chain.
    const std::string ckpt_path = !opts.checkpointPath.empty()
                                      ? opts.checkpointPath
                                      : opts.restorePath;
    auto flushCheckpoint = [&]() {
        if (jsonl_trace && sink) {
            state.traceByteOffset =
                static_cast<JsonlTraceSink *>(sink.get())
                    ->byteOffset();
        }
        writeCheckpoint(ckpt_path, opts.spec, state);
        last_ckpt = simulation.recordedEpochs();
    };

    bool interrupted = false;
    while (!simulation.done()) {
        if (ckptInterruptRequested()) {
            interrupted = true;
            break;
        }
        simulation.stepEpoch();
        if (!ckpt_path.empty() && opts.ckptEvery > 0 &&
            simulation.recordedEpochs() >=
                last_ckpt + opts.ckptEvery) {
            flushCheckpoint();
        }
    }

    if (interrupted && !simulation.done()) {
        if (!ckpt_path.empty()) {
            flushCheckpoint();
            std::fprintf(stderr,
                         "interrupted: checkpoint written; resume "
                         "with --restore %s\n",
                         ckpt_path.c_str());
        } else {
            std::fprintf(
                stderr,
                "interrupted (no --checkpoint path; progress "
                "lost)\n");
        }
        if (sink) {
            setLogSink(nullptr);
            sink->finish();
        }
        return ckptResumableExit;
    }

    // Final checkpoint: lets the chain be inspected/verified after
    // the run and makes `--restore` of a finished run a no-op.
    if (!opts.checkpointPath.empty())
        flushCheckpoint();

    const RunResult result = simulation.finish();

    if (sink) {
        setLogSink(nullptr);
        sink->finish();
        verbose("trace: %llu events written to %s",
                static_cast<unsigned long long>(tracer.eventCount()),
                opts.tracePath.c_str());
    }

    std::printf("workload   : %s (%u cores)\n",
                opts.spec.workload.c_str(), workload->numCores());
    std::printf("scheme     : %s\n", system->name().c_str());
    std::printf("throughput : %.4f IPC (sum over cores)\n",
                result.avgThroughput);
    std::printf("performance: %.4f (instrs / slowest-core cycles)\n",
                result.performance);
    if (morph) {
        const auto &stats = morph->controller().stats();
        std::printf("reconfig   : %llu merges, %llu splits, %llu "
                    "asymmetric outcomes, final %s\n",
                    static_cast<unsigned long long>(stats.merges),
                    static_cast<unsigned long long>(stats.splits),
                    static_cast<unsigned long long>(
                        stats.asymmetricOutcomes),
                    morph->hierarchy().topology().name().c_str());
        const std::string robustness =
            morph->controller().robustnessReport();
        if (!robustness.empty())
            std::printf("%s", robustness.c_str());
    }

    Series tput{"throughput", {}};
    Series misses{"misses", {}};
    for (const EpochMetrics &epoch : result.epochs) {
        tput.values.push_back(epoch.throughput);
        double m = 0;
        for (auto v : epoch.misses)
            m += static_cast<double>(v);
        misses.values.push_back(m);
    }
    std::printf("%s\n", summaryLine(tput).c_str());
    if (!opts.csvPath.empty()) {
        CsvMeta csv_meta;
        csv_meta.seed = opts.spec.seed;
        csv_meta.configHash = config_hash;
        writeCsv(opts.csvPath, {tput, misses}, &csv_meta);
        std::printf("per-epoch series written to %s\n",
                    opts.csvPath.c_str());
    }

    if (opts.profile) {
        const std::string prof = Profiler::global().report();
        if (!prof.empty())
            std::printf("%s", prof.c_str());
    }
    if (!opts.statsOutPath.empty()) {
        const bool csv =
            opts.statsOutPath.size() >= 4 &&
            opts.statsOutPath.compare(opts.statsOutPath.size() - 4,
                                      4, ".csv") == 0;
        if (csv)
            registry.writeCsv(opts.statsOutPath);
        else
            registry.writeJson(opts.statsOutPath);
        std::printf("stats registry written to %s\n",
                    opts.statsOutPath.c_str());
    }
    if (opts.statsEpochs)
        std::printf("%s", registry.csvString().c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::signal(SIGINT, handleInterruptSignal);
    std::signal(SIGTERM, handleInterruptSignal);
    try {
        return run(opts);
    } catch (const IoError &err) {
        // A persistent filesystem fault (ENOSPC, EIO, dead NFS).
        // The durable state on disk is complete-old or complete-new
        // by construction, so this run is resumable once the medium
        // recovers — signalled with the same exit code as an
        // interrupt (75, EX_TEMPFAIL).
        std::fprintf(stderr,
                     "i/o error: %s\n"
                     "state on disk is consistent; rerun with "
                     "--restore once the filesystem recovers\n",
                     err.what());
        return ckptResumableExit;
    } catch (const SimError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
