/**
 * @file
 * mc_campaign — multi-process work-stealing campaign executor.
 *
 * Drives a sweep campaign with any number of independent worker
 * processes sharing nothing but the manifest directory. Each worker
 * is one `work` process, started in its own shell or on a separate
 * host over a shared filesystem; any of them can die
 * (SIGKILL included) at any point and the fleet still finishes with
 * merged output byte-identical to an uninterrupted run. This is the
 * repo's one grid runner: every mix × seed sweep runs through it,
 * from one `work -j1` process to a fleet, with merged bytes that do
 * not depend on the job or worker count.
 *
 * Usage:
 *   mc_campaign init --manifest FILE [spec options]
 *       write a fresh manifest embedding the campaign plan (base
 *       RunSpec + mix range + seed replicas) so workers rebuild the
 *       exact cell list from the manifest alone; the first cell is
 *       built first, so a bad spec (unknown scheme, zero cores)
 *       fails here and writes nothing
 *       spec options: --scheme S --cores N --epochs N --refs N
 *                     --seed N --paper-scale --check POLICY
 *                     --quarantine N --mixes A-B --sweep-seeds K
 *
 *   mc_campaign work --manifest FILE [-jN]
 *                    [--lease-ttl SEC] [--ckpt-every N]
 *                    [--retry-cells K] [--cell-timeout SEC]
 *                    [--worker-id ID]
 *       claim and run cells until every cell has a durable result.
 *       -jN runs N cells concurrently in this worker process; a
 *       fleet is several `work` processes on one manifest. Cells
 *       are claimed through heartbeat leases (TTL --lease-ttl,
 *       default 30 s); a worker silent past its deadline is
 *       presumed dead and its cells are stolen, resuming from their
 *       newest checkpoint — so rerunning `work` after the only
 *       worker died waits out that worker's TTL first. Exits 0 when
 *       the campaign is complete, 75 (resumable) on SIGINT/SIGTERM.
 *
 *   mc_campaign status --manifest FILE
 *       live progress aggregate: per-cell status from the manifest,
 *       result files, and leases. Exits 0 when every cell has a
 *       result, 9 while the campaign is still in progress.
 *
 *   mc_campaign merge --manifest FILE [--stats-out FILE]
 *       render the final report from the per-cell result files —
 *       the same bytes for any worker count, kill schedule, or
 *       number of reruns. Exits 1 if any cell terminally failed, 9
 *       if results are still missing; a corrupt result file is an
 *       error naming it (delete it and rerun `work`).
 *
 *   mc_campaign reap --manifest FILE
 *       delete expired leases and leases of finished cells, making
 *       a dead fleet's cells immediately claimable.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numparse.hh"
#include "io/vfs.hh"
#include "runner/executor.hh"
#include "runner/lease.hh"
#include "runner/run_factory.hh"

using namespace morphcache;

namespace {

/** Exit code of status/merge while the campaign is in progress. */
constexpr int campaignInProgressExit = 9;

struct Options
{
    std::string command;
    std::string manifestPath;
    std::string statsOutPath;
    std::string workerId;
    CampaignPlan plan;
    unsigned jobs = 1;
    std::uint32_t ckptEvery = 0;
    std::uint32_t retryCells = 0;
    double cellTimeoutSec = 0.0;
    double leaseTtlSec = 30.0;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s init   --manifest FILE [--scheme S] [--cores N]\n"
        "                 [--epochs N] [--refs N] [--seed N]\n"
        "                 [--paper-scale] [--check POLICY]\n"
        "                 [--quarantine N] [--mixes A-B]\n"
        "                 [--sweep-seeds K]\n"
        "       %s work   --manifest FILE [-jN]\n"
        "                 [--lease-ttl SEC] [--ckpt-every N]\n"
        "                 [--retry-cells K] [--cell-timeout SEC]\n"
        "                 [--worker-id ID]\n"
        "       %s status --manifest FILE\n"
        "       %s merge  --manifest FILE [--stats-out FILE]\n"
        "       %s reap   --manifest FILE\n",
        argv0, argv0, argv0, argv0, argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0]);
    Options opts;
    opts.command = argv[1];
    if (opts.command != "init" && opts.command != "work" &&
        opts.command != "status" && opts.command != "merge" &&
        opts.command != "reap") {
        std::fprintf(stderr, "unknown command '%s'\n",
                     opts.command.c_str());
        usage(argv[0]);
    }
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
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
        if (arg == "--manifest") {
            opts.manifestPath = value();
        } else if (arg == "--scheme") {
            opts.plan.base.scheme = value();
        } else if (arg == "--cores") {
            opts.plan.base.cores =
                flagNumber<std::uint32_t>("--cores", value());
        } else if (arg == "--epochs") {
            opts.plan.base.epochs =
                flagNumber<std::uint32_t>("--epochs", value());
        } else if (arg == "--refs") {
            opts.plan.base.refs =
                flagNumber<std::uint64_t>("--refs", value());
        } else if (arg == "--seed") {
            opts.plan.base.seed =
                flagNumber<std::uint64_t>("--seed", value());
        } else if (arg == "--paper-scale") {
            opts.plan.base.paperScale = true;
        } else if (arg == "--check") {
            opts.plan.base.checkPolicy = value();
        } else if (arg == "--quarantine") {
            opts.plan.base.quarantine =
                flagNumber<std::uint32_t>("--quarantine", value());
        } else if (arg == "--mixes") {
            const std::string spec = value();
            const std::string_view range = spec;
            const std::size_t dash = range.find('-');
            opts.plan.mixLo =
                flagNumber<std::uint32_t>("--mixes", range.substr(0, dash));
            opts.plan.mixHi = dash == std::string_view::npos
                                  ? opts.plan.mixLo
                                  : flagNumber<std::uint32_t>(
                                        "--mixes", range.substr(dash + 1));
            if (opts.plan.mixLo < 1 || opts.plan.mixHi > 12 ||
                opts.plan.mixLo > opts.plan.mixHi) {
                std::fprintf(stderr,
                             "--mixes range must lie in 1-12\n");
                usage(argv[0]);
            }
        } else if (arg == "--sweep-seeds") {
            opts.plan.sweepSeeds =
                flagNumber<std::uint32_t>("--sweep-seeds", value());
            if (opts.plan.sweepSeeds == 0) {
                std::fprintf(stderr,
                             "--sweep-seeds must be nonzero\n");
                usage(argv[0]);
            }
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = flagNumber<unsigned>(arg.c_str(), value());
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            opts.jobs = flagNumber<unsigned>(
                "-j", std::string_view(arg).substr(2));
        } else if (arg == "--lease-ttl") {
            opts.leaseTtlSec = flagNumber<double>("--lease-ttl", value());
            if (opts.leaseTtlSec <= 0.0) {
                std::fprintf(stderr,
                             "--lease-ttl must be positive\n");
                usage(argv[0]);
            }
        } else if (arg == "--ckpt-every") {
            opts.ckptEvery =
                flagNumber<std::uint32_t>("--ckpt-every", value());
        } else if (arg == "--retry-cells") {
            opts.retryCells =
                flagNumber<std::uint32_t>("--retry-cells", value());
        } else if (arg == "--cell-timeout") {
            opts.cellTimeoutSec =
                flagNumber<double>("--cell-timeout", value());
        } else if (arg == "--stats-out") {
            opts.statsOutPath = value();
        } else if (arg == "--worker-id") {
            opts.workerId = value();
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
    if (opts.manifestPath.empty()) {
        std::fprintf(stderr, "%s requires --manifest\n",
                     opts.command.c_str());
        usage(argv[0]);
    }
    return opts;
}

extern "C" void
handleInterruptSignal(int)
{
    requestCkptInterrupt();
}

int
runInit(const Options &opts)
{
    // Every cell shares the scheme, scale, core count and check
    // policy, so building the first one rejects a spec no cell could
    // run before any file is written.
    const std::vector<CampaignCell> cells = opts.plan.cells();
    buildRun(cells.front().spec);
    initManifestWithPlan(opts.manifestPath, opts.plan);
    std::fprintf(stderr,
                 "campaign initialised: %zu cells in %s "
                 "(state dir %s)\n",
                 cells.size(), opts.manifestPath.c_str(),
                 campaignStateDir(opts.manifestPath).c_str());
    return 0;
}

/** This worker process's drain of the campaign. */
int
runWork(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();

    ExecutorOptions eopts;
    eopts.manifestPath = opts.manifestPath;
    eopts.jobs = opts.jobs;
    eopts.ckptEvery = opts.ckptEvery;
    eopts.retryCells = opts.retryCells;
    eopts.cellTimeoutSec = opts.cellTimeoutSec;
    eopts.leaseTtlSec = opts.leaseTtlSec;
    eopts.workerId = opts.workerId.empty() ? defaultWorkerId()
                                           : opts.workerId;

    const ExecutorReport report = runExecutor(cells, eopts);
    std::fprintf(stderr,
                 "worker %s: committed %zu results (%zu failed), "
                 "reclaimed %zu leases, fenced %zu commits\n",
                 eopts.workerId.c_str(), report.completed,
                 report.failedCells, report.reclaimed,
                 report.fenced);
    if (report.interrupted) {
        std::fprintf(stderr,
                     "worker %s: interrupted; rerun `work` to "
                     "finish\n",
                     eopts.workerId.c_str());
        return ckptResumableExit;
    }
    return report.campaignComplete ? 0 : 1;
}

int
runStatus(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();
    const std::string dir = campaignStateDir(opts.manifestPath);
    const std::vector<CellProgress> progress = foldManifest(
        opts.manifestPath, cells.size(), campaignHash(cells));

    std::size_t done = 0, failed = 0, leased = 0, pending = 0;
    const double now = leaseNow();
    std::string detail;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        char line[160];
        if (fileExists(cellResultPath(dir, i))) {
            const bool cellFailed = progress[i].status == "failed";
            (cellFailed ? failed : done) += 1;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s %s\n", i,
                          cells[i].label.c_str(),
                          cellFailed ? "failed" : "done");
            detail += line;
            continue;
        }
        LeaseInfo lease;
        const LeaseRead state =
            readLease(cellLeasePath(dir, i), lease);
        if (state == LeaseRead::Valid && lease.deadline >= now) {
            ++leased;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s running (leased by "
                          "%s, ttl %.1fs)\n",
                          i, cells[i].label.c_str(),
                          lease.worker.c_str(),
                          lease.deadline - now);
        } else {
            ++pending;
            std::snprintf(line, sizeof(line),
                          "cell %3zu   : %-24s %s\n", i,
                          cells[i].label.c_str(),
                          state == LeaseRead::Missing
                              ? "pending"
                              : "pending (stale lease)");
        }
        detail += line;
    }
    std::printf("campaign   : %zu cells\n%s", cells.size(),
                detail.c_str());
    std::printf("status     : %zu done, %zu failed, %zu running, "
                "%zu pending\n",
                done, failed, leased, pending);

    // Live throughput telemetry from manifest event timestamps:
    // done/total, cells/min, per-worker rates, and an ETA for the
    // remaining cells. Purely advisory — absent when the manifest
    // predates timestamps or nothing has finished yet.
    const ManifestTiming timing =
        foldManifestTiming(opts.manifestPath);
    const double rate = timing.cellsPerMinute();
    const std::size_t finished = done + failed;
    const std::size_t remaining = cells.size() - finished;
    char pbuf[160];
    if (rate > 0.0) {
        std::snprintf(pbuf, sizeof(pbuf),
                      "progress   : %zu/%zu done, %.1f cells/min",
                      finished, cells.size(), rate);
        std::string line = pbuf;
        if (remaining > 0) {
            const double eta_s =
                60.0 * static_cast<double>(remaining) / rate;
            if (eta_s >= 90.0) {
                std::snprintf(pbuf, sizeof(pbuf),
                              ", ETA %.1f min", eta_s / 60.0);
            } else {
                std::snprintf(pbuf, sizeof(pbuf),
                              ", ETA %.0f s", eta_s);
            }
            line += pbuf;
        }
        std::printf("%s\n", line.c_str());
    } else {
        std::printf("progress   : %zu/%zu done\n", finished,
                    cells.size());
    }
    for (const auto &entry : timing.workers) {
        const WorkerTiming &w = entry.second;
        if (w.done == 0)
            continue;
        const double window = w.lastT - w.firstT;
        if (window > 0.0) {
            std::printf("worker     : %-24s %zu cells, %.1f "
                        "cells/min\n",
                        entry.first.c_str(), w.done,
                        60.0 * static_cast<double>(w.done) /
                            window);
        } else {
            std::printf("worker     : %-24s %zu cells\n",
                        entry.first.c_str(), w.done);
        }
    }
    return finished == cells.size() ? 0 : campaignInProgressExit;
}

int
runMerge(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::vector<CampaignCell> cells = plan.cells();
    const RenderedReport report =
        mergeCampaignResults(opts.manifestPath, cells);
    if (report.missing != 0) {
        std::fprintf(stderr,
                     "campaign incomplete: %zu of %zu cells have "
                     "no result yet; run `mc_campaign work` (or "
                     "`status` for live progress)\n",
                     report.missing, cells.size());
        return campaignInProgressExit;
    }

    std::printf("%s", report.reportText.c_str());
    if (!opts.statsOutPath.empty()) {
        // Throws IoError naming the path on an open, write or close
        // failure (ENOSPC, EIO).
        vfsWriteWholeFile(opts.statsOutPath,
                          report.statsJsonArray.data(),
                          report.statsJsonArray.size(),
                          /*want_fsync=*/false);
        std::fprintf(stderr, "stats registries written to %s\n",
                     opts.statsOutPath.c_str());
    }
    return report.failed == 0 ? 0 : 1;
}

int
runReap(const Options &opts)
{
    const CampaignPlan plan = planFromManifest(opts.manifestPath);
    const std::size_t n = plan.cells().size();
    const std::size_t removed = reapStaleLeases(
        campaignStateDir(opts.manifestPath), n);
    std::fprintf(stderr, "reaped %zu stale lease(s)\n", removed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    std::signal(SIGINT, handleInterruptSignal);
    std::signal(SIGTERM, handleInterruptSignal);
    try {
        if (opts.command == "init")
            return runInit(opts);
        if (opts.command == "work")
            return runWork(opts);
        if (opts.command == "status")
            return runStatus(opts);
        if (opts.command == "merge")
            return runMerge(opts);
        return runReap(opts);
    } catch (const SimError &err) {
        fatal("%s", err.what());
    }
}
