/**
 * @file
 * mc_iofuzz — seeded filesystem-fault sweeps over the durability
 * primitives.
 *
 * For each scenario the harness swaps a FaultyVfs over the process
 * vfs, runs one durable-I/O workload under a seeded fault schedule
 * (random ENOSPC/EIO/ESTALE/short-write/fsync faults; odd seeds add
 * a crash point that tears one operation and kills everything
 * after), swaps the real vfs back, and checks the recovery
 * invariant the tree promises:
 *
 *   ckpt      atomicWriteFileWithRotation: the destination or its
 *             .prev holds complete old or complete new bytes —
 *             never a prefix, never a mix — and a clean rewrite
 *             afterwards always recovers.
 *   manifest  ManifestLog::appendCell: the fold never throws, never
 *             sees a fabricated event, and never loses an append
 *             that reported success.
 *   lease     tryClaimCell/renewLease/releaseLease: failures are
 *             typed LeaseErrors, at most one worker holds a cell,
 *             and the published lease file always parses.
 *   sink      JsonlTraceSink: bytes on disk are always a prefix of
 *             the uninterrupted reference stream, and the tracked
 *             byteOffset equals the file size exactly.
 *   campaign  initManifestWithPlan and one runExecutor worker
 *             under faults (a crash point stops the worker the way
 *             a dying process would), then a clean worker and a
 *             merge: the report and stats bytes equal an
 *             uninterrupted run's.
 *
 * Every failure prints the exact replay command. Seeds are plain
 * indices: `mc_iofuzz --scenario ckpt --seed 173` reruns schedule
 * 173 of the ckpt scenario, nothing else.
 */

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numparse.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "io/faulty_vfs.hh"
#include "io/vfs.hh"
#include "runner/executor.hh"
#include "runner/lease.hh"
#include "runner/manifest.hh"
#include "stats/tracing.hh"

using namespace morphcache;

namespace {

struct Options
{
    std::string scenario = "all";
    std::string dir;
    // Per-scenario schedule counts; ~2160 total by default so the
    // acceptance bar (>= 2000 schedules, crash mode included) is
    // the default run, not a special invocation.
    std::uint64_t ckptSeeds = 800;
    std::uint64_t manifestSeeds = 600;
    std::uint64_t leaseSeeds = 400;
    std::uint64_t sinkSeeds = 300;
    std::uint64_t campaignSeeds = 60;
    /** Replay exactly one schedule (index) when >= 0. */
    long long replaySeed = -1;
    bool verbose = false;
};

/**
 * Thousands of schedules provoke thousands of legitimate
 * torn-tail / retry warnings; keep them out of the sweep output
 * unless --verbose asks for them. panic/fatal always print.
 */
class MuteSink final : public LogSink
{
  public:
    void
    message(const char *kind, const char *text) override
    {
        if (std::strcmp(kind, "warn") == 0 ||
            std::strcmp(kind, "info") == 0 ||
            std::strcmp(kind, "verbose") == 0) {
            return;
        }
        logToStderr(kind, text);
    }
};

/** Schedule derivation: a pure function of (scenario, index). Odd
 * indices run crash-point mode — the torn-at-any-syscall leg. */
FaultPlan
planFor(std::uint64_t scenario_salt, std::uint64_t idx)
{
    std::uint64_t s = scenario_salt * 0x9e3779b97f4a7c15ULL + idx;
    FaultPlan plan;
    plan.seed = splitMix64(s);
    plan.faultPermille =
        static_cast<std::uint32_t>(40 + splitMix64(s) % 260);
    plan.transientPermille =
        static_cast<std::uint32_t>(splitMix64(s) % 1001);
    if (idx % 2 == 1)
        plan.crashAtOp = 1 + splitMix64(s) % 64;
    return plan;
}

std::string
fileText(const std::string &path)
{
    const std::vector<std::uint8_t> raw = readFileBytes(path);
    return std::string(raw.begin(), raw.end());
}

void
writeText(const std::string &path, const std::string &text)
{
    vfsWriteWholeFile(path, text.data(), text.size(),
                      /*want_fsync=*/false);
}

void
reportFailure(const char *scenario, std::uint64_t idx,
              const std::string &what)
{
    std::fprintf(stderr,
                 "FAIL %s schedule %llu: %s\n"
                 "  replay: mc_iofuzz --scenario %s --seed %llu\n",
                 scenario, static_cast<unsigned long long>(idx),
                 what.c_str(), scenario,
                 static_cast<unsigned long long>(idx));
}

// ---------------------------------------------------------------
// ckpt: rotation + atomic write is complete-old-or-complete-new
// ---------------------------------------------------------------

bool
runCkptSchedule(const Options &opts, std::uint64_t idx)
{
    const std::string path = opts.dir + "/ckpt.bin";
    const std::string prev = path + ".prev";
    const std::string before = "OLD generation, complete bytes";
    const std::string after =
        "NEW generation, longer so a torn rename or short write "
        "cannot masquerade as either complete state";

    vfs().unlinkPath(path);
    vfs().unlinkPath(prev);
    writeText(path, before);

    FaultyVfs faulty(vfs(), planFor(1, idx));
    {
        ScopedVfs swap(&faulty);
        // Up to three rewrites per schedule: the rotation chain
        // (path -> .prev -> gone) gets churned, not just touched.
        for (int round = 0; round < 3; ++round) {
            try {
                atomicWriteFileWithRotation(path, after.data(),
                                            after.size());
            } catch (const IoError &) {
                break; // quarantined; recovery checked below
            }
        }
    }

    // Recovery view, real vfs: complete-old or complete-new.
    if (vfs().existsPath(path)) {
        const std::string text = fileText(path);
        if (text != before && text != after) {
            reportFailure("ckpt", idx,
                          "primary holds torn bytes: '" + text +
                              "'");
            return false;
        }
    } else if (!vfs().existsPath(prev)) {
        reportFailure("ckpt", idx, "both generations lost");
        return false;
    }
    if (vfs().existsPath(prev)) {
        const std::string text = fileText(prev);
        if (text != before && text != after) {
            reportFailure("ckpt", idx,
                          ".prev holds torn bytes: '" + text + "'");
            return false;
        }
    }

    // Recovery replay: once the medium heals, a clean rewrite must
    // land regardless of what the faulty history left behind.
    atomicWriteFileWithRotation(path, after.data(), after.size());
    if (fileText(path) != after) {
        reportFailure("ckpt", idx, "clean rewrite did not recover");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// manifest: fold never fabricates, never loses a reported success
// ---------------------------------------------------------------

bool
runManifestSchedule(const Options &opts, std::uint64_t idx)
{
    const std::size_t cells = 3;
    const std::uint64_t hash = 0x6d63696f66757aULL;
    const std::string path = opts.dir + "/manifest.jsonl";
    vfs().unlinkPath(path);
    {
        std::string doc = manifestHeaderLine(cells, hash);
        for (std::size_t i = 0; i < cells; ++i) {
            doc += "{\"type\":\"cell\",\"index\":" +
                   std::to_string(i) +
                   ",\"status\":\"pending\",\"attempts\":0}\n";
        }
        writeText(path, doc);
    }

    // A deterministic event script; each entry is (cell, status,
    // attempts). lastOk[i] = script position of the last append
    // that *reported success* for cell i.
    struct Ev
    {
        std::size_t cell;
        const char *status;
        std::uint64_t tries;
    };
    std::vector<Ev> script;
    std::uint64_t s = idx + 101;
    for (int k = 0; k < 12; ++k) {
        static const char *const kStatuses[3] = {"running",
                                                "failed", "done"};
        script.push_back(Ev{
            static_cast<std::size_t>(splitMix64(s) % cells),
            kStatuses[splitMix64(s) % 3], splitMix64(s) % 5});
    }

    std::vector<long long> lastOk(cells, -1);
    FaultyVfs faulty(vfs(), planFor(2, idx));
    {
        ScopedVfs swap(&faulty);
        ManifestLog log(path);
        log.setWorker("iofuzz");
        for (std::size_t k = 0; k < script.size(); ++k) {
            try {
                log.appendCell(script[k].cell, script[k].status,
                               script[k].tries);
                lastOk[script[k].cell] =
                    static_cast<long long>(k);
            } catch (const IoError &) {
                // Quarantined append; the record may or may not
                // have landed — both are legal, fabrication isn't.
            }
        }
    }

    std::vector<CellProgress> progress;
    try {
        progress = foldManifest(path, cells, hash);
    } catch (const CkptError &err) {
        reportFailure("manifest", idx,
                      std::string("fold threw: ") + err.what());
        return false;
    }
    for (std::size_t i = 0; i < cells; ++i) {
        // The observed state must be a script event for this cell
        // (or the initial pending line) at a position not before
        // the last reported success — an append that reported
        // success can never be lost, and nothing can appear that
        // was never appended.
        long long seen = -1;
        if (progress[i].status != "pending" ||
            progress[i].attempts != 0) {
            for (std::size_t k = 0; k < script.size(); ++k) {
                if (script[k].cell == i &&
                    script[k].status == progress[i].status &&
                    script[k].tries == progress[i].attempts) {
                    seen = static_cast<long long>(k);
                }
            }
            if (seen < 0) {
                reportFailure(
                    "manifest", idx,
                    "cell " + std::to_string(i) +
                        " shows fabricated event " +
                        progress[i].status + "/" +
                        std::to_string(progress[i].attempts));
                return false;
            }
        }
        if (seen < lastOk[i]) {
            reportFailure(
                "manifest", idx,
                "cell " + std::to_string(i) +
                    " lost an append that reported success");
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------
// lease: typed failures, single ownership, parseable files
// ---------------------------------------------------------------

bool
runLeaseSchedule(const Options &opts, std::uint64_t idx)
{
    const std::string dir = opts.dir;
    vfs().unlinkPath(cellLeasePath(dir, 0));
    vfs().unlinkPath(cellResultPath(dir, 0));

    FaultyVfs faulty(vfs(), planFor(3, idx));
    LeaseInfo a, b;
    bool holds_a = false, holds_b = false;
    {
        ScopedVfs swap(&faulty);
        std::uint64_t s = idx + 7;
        for (int k = 0; k < 10; ++k) {
            const bool use_a = splitMix64(s) % 2 == 0;
            LeaseInfo &mine = use_a ? a : b;
            bool &holds = use_a ? holds_a : holds_b;
            const char *id = use_a ? "fuzz-a:1" : "fuzz-b:2";
            try {
                switch (splitMix64(s) % 3) {
                  case 0:
                    if (!holds) {
                        holds = tryClaimCell(dir, 0, id, 3600.0,
                                             mine) ==
                                LeaseClaim::Claimed;
                    }
                    break;
                  case 1:
                    if (holds)
                        holds = renewLease(dir, mine, 3600.0);
                    break;
                  default:
                    if (holds) {
                        releaseLease(dir, mine);
                        holds = false;
                    }
                    break;
                }
            } catch (const LeaseError &) {
                // Typed, expected; claims that died mid-protocol
                // just aren't held.
                holds = false;
            }
        }
    }

    // Real-vfs ground truth: at most one worker's (worker,
    // generation) can match the file, and whatever was published
    // must parse — the link/rename protocol never publishes a torn
    // scratch.
    LeaseInfo current;
    const LeaseRead state =
        readLease(cellLeasePath(dir, 0), current);
    if (state == LeaseRead::Corrupt) {
        reportFailure("lease", idx,
                      "published lease file does not parse");
        return false;
    }
    const bool mine_a = holds_a && state == LeaseRead::Valid &&
                        current.worker == a.worker &&
                        current.generation == a.generation;
    const bool mine_b = holds_b && state == LeaseRead::Valid &&
                        current.worker == b.worker &&
                        current.generation == b.generation;
    if (mine_a && mine_b) {
        reportFailure("lease", idx,
                      "two workers both hold the cell");
        return false;
    }
    vfs().unlinkPath(cellLeasePath(dir, 0));
    return true;
}

// ---------------------------------------------------------------
// sink: on-disk bytes are a prefix of the reference stream
// ---------------------------------------------------------------

bool
runSinkSchedule(const Options &opts, std::uint64_t idx)
{
    const std::string path = opts.dir + "/trace.jsonl";
    const std::string ref_path = opts.dir + "/trace_ref.jsonl";

    auto emitAll = [](JsonlTraceSink &sink) {
        Tracer tracer(&sink);
        for (int k = 0; k < 8; ++k) {
            tracer.setEpoch(static_cast<std::uint64_t>(k));
            TraceEvent ev(k % 2 == 0 ? "epoch" : "merge");
            ev.u64("cond", static_cast<std::uint64_t>(k));
            tracer.emit(ev);
        }
    };

    // Uninterrupted reference bytes.
    vfs().unlinkPath(ref_path);
    {
        JsonlTraceSink sink(ref_path);
        emitAll(sink);
        sink.finish();
    }
    const std::string reference = fileText(ref_path);

    vfs().unlinkPath(path);
    FaultyVfs faulty(vfs(), planFor(4, idx));
    std::uint64_t tracked = 0;
    bool opened = false;
    {
        ScopedVfs swap(&faulty);
        try {
            JsonlTraceSink sink(path);
            opened = true;
            try {
                emitAll(sink);
            } catch (const IoError &) {
                // quarantined mid-stream
            }
            tracked = sink.byteOffset();
            try {
                sink.finish();
            } catch (const IoError &) {
            }
        } catch (const IoError &) {
            // open failed; nothing on disk to check
        }
    }
    if (!opened)
        return true;

    const std::string text = fileText(path);
    // The tracked offset may lag the file (a crash point lands a
    // torn prefix the failed write cannot report) but must never
    // point past it: checkpoints store this value and resume
    // truncates back to it, so running ahead of the disk would
    // tear the resumed stream.
    if (tracked > text.size()) {
        reportFailure(
            "sink", idx,
            "tracked offset " + std::to_string(tracked) +
                " runs past file size " +
                std::to_string(text.size()));
        return false;
    }
    if (reference.compare(0, text.size(), text) != 0) {
        reportFailure("sink", idx,
                      "file is not a prefix of the reference "
                      "stream");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// campaign: faulty worker + clean worker == uninterrupted reference
// ---------------------------------------------------------------

CampaignPlan
fuzzCampaignPlan()
{
    CampaignPlan plan;
    plan.base.workload = "mix:1"; // replaced per cell
    plan.base.scheme = "morph";
    plan.base.cores = 16;
    plan.base.epochs = 4;
    plan.base.refs = 2000;
    plan.base.seed = 11;
    plan.mixLo = 1;
    plan.mixHi = 2;
    plan.sweepSeeds = 1;
    return plan;
}

void
removeCampaignState(const std::string &manifest, std::size_t cells)
{
    vfs().unlinkPath(manifest);
    const std::string dir = campaignStateDir(manifest);
    for (std::size_t i = 0; i < cells; ++i) {
        vfs().unlinkPath(cellCkptPath(dir, i));
        vfs().unlinkPath(cellCkptPath(dir, i) + ".prev");
        vfs().unlinkPath(cellResultPath(dir, i));
        vfs().unlinkPath(cellLeasePath(dir, i));
    }
}

/** Worker knobs shared by every campaign phase. */
ExecutorOptions
fuzzWorkerOptions(const std::string &manifest)
{
    ExecutorOptions eopts;
    eopts.manifestPath = manifest;
    eopts.jobs = 1;
    eopts.ckptEvery = 2;
    // A budget injected faults cannot exhaust: the random schedule
    // is capped below, so no cell ever commits a terminal FAILED
    // result for reasons the clean rerun can't undo.
    eopts.retryCells = 8;
    // Short, so the clean worker soon reclaims a lease the faulty
    // one could not release.
    eopts.leaseTtlSec = 0.2;
    return eopts;
}

bool
runExecutorSchedule(const Options &opts, std::uint64_t idx,
                    const RenderedReport &reference)
{
    const CampaignPlan plan = fuzzCampaignPlan();
    const std::vector<CampaignCell> cells = plan.cells();
    const std::string manifest = opts.dir + "/campaign.jsonl";
    const ExecutorOptions eopts = fuzzWorkerOptions(manifest);
    removeCampaignState(manifest, cells.size());

    FaultPlan fplan = planFor(5, idx);
    fplan.maxFaults = 3;
    FaultyVfs faulty(vfs(), fplan);
    {
        ScopedVfs swap(&faulty);
        // The executor never gives up on a filesystem that keeps
        // failing (its claim loop polls), so a pulled plug is
        // modelled as what it means for a real worker: the process
        // dies. Once the crash point trips, the watcher raises the
        // interrupt flag and the worker stops at its next check.
        std::atomic<bool> phase_done{false};
        std::thread watcher([&faulty, &phase_done] {
            while (!phase_done && !faulty.crashed())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            if (faulty.crashed())
                requestCkptInterrupt();
        });
        try {
            initManifestWithPlan(manifest, plan);
            runExecutor(cells, eopts);
        } catch (const SimError &) {
            // Typed infrastructure failure (init, or the header
            // fold): state on disk must still resume.
        }
        phase_done = true;
        watcher.join();
        clearCkptInterrupt();
    }

    // Clean worker (after a fresh init if the faults struck before
    // the manifest was written), then the merge.
    RenderedReport merged;
    try {
        if (!vfs().existsPath(manifest))
            initManifestWithPlan(manifest, plan);
        runExecutor(cells, eopts);
        merged = mergeCampaignResults(manifest, cells);
    } catch (const SimError &err) {
        reportFailure("campaign", idx,
                      std::string("clean rerun threw: ") + err.what());
        return false;
    }
    if (merged.missing != 0 ||
        merged.reportText != reference.reportText ||
        merged.statsJsonArray != reference.statsJsonArray) {
        reportFailure("campaign", idx,
                      "merged bytes diverge from the uninterrupted "
                      "reference");
        if (opts.verbose) {
            std::fprintf(stderr, "--- reference\n%s--- merged\n%s",
                         reference.reportText.c_str(),
                         merged.reportText.c_str());
        }
        return false;
    }
    removeCampaignState(manifest, cells.size());
    return true;
}

// ---------------------------------------------------------------
// Driver
// ---------------------------------------------------------------

bool
wantScenario(const Options &opts, const char *name)
{
    return opts.scenario == "all" || opts.scenario == name;
}

template <typename Fn>
bool
sweep(const Options &opts, const char *name, std::uint64_t n,
      Fn &&one)
{
    std::uint64_t from = 0, to = n;
    if (opts.replaySeed >= 0) {
        from = static_cast<std::uint64_t>(opts.replaySeed);
        to = from + 1;
    }
    std::uint64_t failures = 0;
    for (std::uint64_t idx = from; idx < to; ++idx) {
        if (!one(idx))
            ++failures;
    }
    std::printf("%-8s %6llu schedules, %llu failures\n", name,
                static_cast<unsigned long long>(to - from),
                static_cast<unsigned long long>(failures));
    return failures == 0;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--scenario all|ckpt|manifest|lease|sink|"
        "campaign]\n"
        "          [--seeds N] [--seed IDX] [--dir PATH] "
        "[--verbose]\n"
        "\n"
        "Sweeps seeded filesystem-fault schedules (odd indices run\n"
        "crash-point mode) over the durability primitives and\n"
        "checks the complete-old-or-complete-new recovery\n"
        "contract. --seed replays one schedule of one scenario.\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Fault coverage of fsync sites comes from the injector, which
    // sits above the MC_NO_FSYNC gate — so the sweep itself runs
    // with real fsyncs off unless the caller insists otherwise.
    ::setenv("MC_NO_FSYNC", "1", /*overwrite=*/0);

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scenario") {
            opts.scenario = value();
        } else if (arg == "--seeds") {
            const auto n = flagNumber<std::uint64_t>("--seeds", value());
            if (n == 0) {
                std::fprintf(stderr, "--seeds must be nonzero\n");
                return usage(argv[0]);
            }
            opts.ckptSeeds = n;
            opts.manifestSeeds = n;
            opts.leaseSeeds = n;
            opts.sinkSeeds = n;
            opts.campaignSeeds = n;
        } else if (arg == "--seed") {
            opts.replaySeed = flagNumber<long long>("--seed", value());
        } else if (arg == "--dir") {
            opts.dir = value();
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else {
            return usage(argv[0]);
        }
    }
    static MuteSink mute;
    if (!opts.verbose)
        setLogSink(&mute);
    if (opts.replaySeed >= 0 && opts.scenario == "all") {
        std::fprintf(stderr,
                     "--seed replays one scenario; pass "
                     "--scenario too\n");
        return 2;
    }
    if (opts.dir.empty()) {
        opts.dir = "/tmp/mc_iofuzz." +
                   std::to_string(static_cast<long>(::getpid()));
    }
    const int mk_rc = vfs().mkdirPath(opts.dir);
    if (mk_rc < 0 && mk_rc != -EEXIST) {
        std::fprintf(stderr, "cannot create workdir '%s': %s\n",
                     opts.dir.c_str(), std::strerror(-mk_rc));
        return 2;
    }

    bool ok = true;
    if (wantScenario(opts, "ckpt")) {
        ok &= sweep(opts, "ckpt", opts.ckptSeeds,
                    [&](std::uint64_t idx) {
                        return runCkptSchedule(opts, idx);
                    });
    }
    if (wantScenario(opts, "manifest")) {
        ok &= sweep(opts, "manifest", opts.manifestSeeds,
                    [&](std::uint64_t idx) {
                        return runManifestSchedule(opts, idx);
                    });
    }
    if (wantScenario(opts, "lease")) {
        ok &= sweep(opts, "lease", opts.leaseSeeds,
                    [&](std::uint64_t idx) {
                        return runLeaseSchedule(opts, idx);
                    });
    }
    if (wantScenario(opts, "sink")) {
        ok &= sweep(opts, "sink", opts.sinkSeeds,
                    [&](std::uint64_t idx) {
                        return runSinkSchedule(opts, idx);
                    });
    }
    if (wantScenario(opts, "campaign")) {
        // One uninterrupted reference run, reused by every
        // schedule's diff.
        const std::vector<CampaignCell> cells =
            fuzzCampaignPlan().cells();
        const std::string ref = opts.dir + "/campaign_ref.jsonl";
        removeCampaignState(ref, cells.size());
        initManifestWithPlan(ref, fuzzCampaignPlan());
        runExecutor(cells, fuzzWorkerOptions(ref));
        const RenderedReport reference =
            mergeCampaignResults(ref, cells);
        removeCampaignState(ref, cells.size());
        ok &= sweep(opts, "campaign", opts.campaignSeeds,
                    [&](std::uint64_t idx) {
                        return runExecutorSchedule(opts, idx,
                                                   reference);
                    });
    }

    if (!ok) {
        std::fprintf(stderr, "mc_iofuzz: FAILURES (replay commands "
                             "above)\n");
        return 1;
    }
    std::printf("mc_iofuzz: all schedules hold the recovery "
                "contract\n");
    return 0;
}
