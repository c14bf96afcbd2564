#include "runner/manifest.hh"

#include <fcntl.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "common/textfmt.hh"
#include "io/vfs.hh"
#include "perf/clock.hh"
#include "runner/sweep.hh"

namespace morphcache {

std::size_t
findJsonKey(const std::string &text, const char *key)
{
    const std::string token = std::string("\"") + key + "\":";
    return text.find(token) == std::string::npos
               ? std::string::npos
               : text.find(token) + token.size();
}

bool
jsonFieldU64(const std::string &text, const char *key,
             std::uint64_t &out)
{
    const std::size_t at = findJsonKey(text, key);
    if (at == std::string::npos)
        return false;
    out = std::strtoull(text.c_str() + at, nullptr, 10);
    return true;
}

bool
jsonFieldF64(const std::string &text, const char *key, double &out)
{
    const std::size_t at = findJsonKey(text, key);
    if (at == std::string::npos)
        return false;
    out = std::strtod(text.c_str() + at, nullptr);
    return true;
}

bool
jsonFieldStr(const std::string &text, const char *key,
             std::string &out)
{
    std::size_t at = findJsonKey(text, key);
    if (at == std::string::npos || at >= text.size() ||
        text[at] != '"') {
        return false;
    }
    ++at;
    out.clear();
    while (at < text.size() && text[at] != '"') {
        char c = text[at];
        if (c == '\\' && at + 1 < text.size()) {
            ++at;
            const char e = text[at];
            c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
        }
        out += c;
        ++at;
    }
    return at < text.size();
}

std::uint64_t
campaignHash(const std::vector<CampaignCell> &cells)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const CampaignCell &cell : cells) {
        const std::string item = cell.label + "\n" +
                                 describe(cell.spec) + "\nseed=" +
                                 std::to_string(cell.spec.seed) +
                                 "\n";
        h = fnv1a64(item.data(), item.size(), h);
    }
    return h;
}

std::string
campaignStateDir(const std::string &manifestPath)
{
    return manifestPath + ".d";
}

std::string
cellCkptPath(const std::string &dir, std::size_t i)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/cell%04zu.ckpt", i);
    return dir + buf;
}

std::string
cellResultPath(const std::string &dir, std::size_t i)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "/cell%04zu.result.json", i);
    return dir + buf;
}

std::string
cellLeasePath(const std::string &dir, std::size_t i)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/cell%04zu.lease", i);
    return dir + buf;
}

bool
fileExists(const std::string &path)
{
    return vfs().existsPath(path);
}

std::string
serializeOutcome(const CellOutcome &o)
{
    char num[64];
    std::string out = "{\"label\":\"" + jsonEscape(o.label) +
                      "\",\"seed\":" + std::to_string(o.seed) +
                      ",\"attempts\":" + std::to_string(o.attempts);
    if (o.failed) {
        out += ",\"failed\":\"" + jsonEscape(o.error) + "\"}";
        out += '\n';
        return out;
    }
    std::snprintf(num, sizeof(num), "%.17g", o.throughput);
    out += std::string(",\"throughput\":") + num;
    std::snprintf(num, sizeof(num), "%.17g", o.performance);
    out += std::string(",\"performance\":") + num;
    out += ",\"finalTopology\":\"" + jsonEscape(o.finalTopology) +
           "\",\"merges\":" + std::to_string(o.merges) +
           ",\"splits\":" + std::to_string(o.splits);
    if (!o.statsJson.empty())
        out += ",\"stats\":" + o.statsJson;
    out += "}\n";
    return out;
}

CellOutcome
parseOutcome(const std::string &path, const std::string &text)
{
    CellOutcome o;
    auto need = [&](bool ok, const char *what) {
        if (!ok) {
            throw CkptError("'" + path +
                            "': result record missing field '" +
                            what + "'");
        }
    };
    need(jsonFieldStr(text, "label", o.label), "label");
    need(jsonFieldU64(text, "seed", o.seed), "seed");
    need(jsonFieldU64(text, "attempts", o.attempts), "attempts");
    if (jsonFieldStr(text, "failed", o.error)) {
        o.failed = true;
        return o;
    }
    need(jsonFieldF64(text, "throughput", o.throughput),
         "throughput");
    need(jsonFieldF64(text, "performance", o.performance),
         "performance");
    need(jsonFieldStr(text, "finalTopology", o.finalTopology),
         "finalTopology");
    need(jsonFieldU64(text, "merges", o.merges), "merges");
    need(jsonFieldU64(text, "splits", o.splits), "splits");
    const std::size_t stats = findJsonKey(text, "stats");
    if (stats != std::string::npos) {
        const std::size_t end = text.rfind('}');
        if (end == std::string::npos || end < stats)
            throw CkptError("'" + path +
                            "': malformed stats field");
        o.statsJson = text.substr(stats, end - stats);
    }
    o.ok = true;
    return o;
}

std::string
manifestHeaderLine(std::size_t cells, std::uint64_t hash,
                   double unix_t)
{
    std::string line =
        "{\"type\":\"header\",\"version\":1,\"cells\":" +
        std::to_string(cells) + ",\"campaignHash\":\"" +
        hex64(hash) + "\"";
    if (unix_t > 0.0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ",\"t\":%.3f", unix_t);
        line += buf;
    }
    line += "}\n";
    return line;
}

namespace {

/**
 * Defense against merged torn lines. Every sanctioned manifest
 * writer emits whole `{"type":...}\n` records, but a writer that
 * died after a *partial* write leaves a torn prefix with no
 * newline — and the next append then shares its line: the torn
 * bytes followed by a complete record. Parsing such a merged line
 * naively is worse than skipping it: the field extractors take the
 * *first* occurrence of a key, so the torn prefix's "index" and
 * the complete suffix's "status" would combine into a phantom
 * event that was never written. The bytes after the *last*
 * record marker in a newline-terminated line always belong to the
 * single O_APPEND write that supplied the newline, so parsing from
 * there recovers the one complete record and discards the torn
 * prefix.
 */
std::string
manifestEventPayload(const std::string &line)
{
    const std::size_t mark = line.rfind("{\"type\":");
    return mark == std::string::npos || mark == 0
               ? line
               : line.substr(mark);
}

} // namespace

std::vector<CellProgress>
foldManifest(const std::string &path, std::size_t num_cells,
             std::uint64_t hash)
{
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    const std::string text(bytes.begin(), bytes.end());

    std::vector<CellProgress> progress(num_cells);
    bool sawHeader = false;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos) {
            // Torn final line from a killed writer; the event it
            // carried is simply replayed by rerunning the cell.
            warn("campaign manifest '%s': ignoring torn final line",
                 path.c_str());
            break;
        }
        const std::string line =
            manifestEventPayload(text.substr(at, nl - at));
        at = nl + 1;

        std::string type;
        if (!jsonFieldStr(line, "type", type)) {
            warn("campaign manifest '%s': ignoring malformed line",
                 path.c_str());
            continue;
        }
        if (type == "header") {
            std::uint64_t cells = 0;
            std::string stamp;
            if (!jsonFieldU64(line, "cells", cells) ||
                !jsonFieldStr(line, "campaignHash", stamp)) {
                throw CkptError("'" + path +
                                "': malformed manifest header");
            }
            if (cells != num_cells) {
                throw CkptError(
                    "'" + path + "': manifest describes " +
                    std::to_string(cells) +
                    " cells but this campaign has " +
                    std::to_string(num_cells));
            }
            if (stamp != hex64(hash)) {
                throw CkptError(
                    "'" + path + "': campaign-hash mismatch: "
                    "manifest has " + stamp + ", this campaign is " +
                    hex64(hash));
            }
            sawHeader = true;
            continue;
        }
        if (type == "cell") {
            std::uint64_t index = 0;
            std::uint64_t attempts = 0;
            std::string status;
            if (!jsonFieldU64(line, "index", index) ||
                !jsonFieldStr(line, "status", status) ||
                !jsonFieldU64(line, "attempts", attempts) ||
                index >= num_cells) {
                warn("campaign manifest '%s': ignoring malformed "
                     "cell event",
                     path.c_str());
                continue;
            }
            progress[index].status = status;
            progress[index].attempts = attempts;
        }
        // Other record types ("plan", future extensions) carry no
        // progress and are skipped by construction.
    }
    if (!sawHeader)
        throw CkptError("'" + path + "': manifest has no header");
    return progress;
}

void
ManifestLog::appendCell(std::size_t index, const char *status,
                        std::uint64_t attempts)
{
    // Worker id and civil-time stamp are advisory extras consumed
    // only by `mc_campaign status` (throughput / ETA); foldManifest
    // never reads them, so progress bytes derived from the fold
    // stay independent of schedule and clock.
    std::string line =
        "{\"type\":\"cell\",\"index\":" + std::to_string(index) +
        ",\"status\":\"" + status +
        "\",\"attempts\":" + std::to_string(attempts);
    if (!worker_.empty())
        line += ",\"worker\":\"" + jsonEscape(worker_) + "\"";
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), ",\"t\":%.3f",
                  unixNowSec());
    line += stamp;
    line += "}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    // Append-only event log: one write per event, fsynced before
    // close, so a crash tears at most the last line (which the
    // fold ignores). The write-rename helper cannot be used here —
    // rewriting the log on every event would turn the manifest
    // into an O(events^2) hot path, lose the history a concurrent
    // crash-time reader depends on, and clobber events other
    // worker processes appended in the meantime. O_APPEND keeps
    // cross-process appends whole.
    //
    // Retry policy is asymmetric by design: a failure with zero
    // bytes landed (open failure, clean first-write error) retries
    // like any transient fault, but once *any* byte of the record
    // is in the log, retrying the whole record would interleave
    // with the torn prefix into a merged line — so partial
    // failures escape immediately as a persistent IoError and the
    // torn tail is left for manifestEventPayload to discard.
    const std::uint64_t id =
        fnv1a64(path_.data(), path_.size());
    for (std::uint64_t attempt = 1;; ++attempt) {
        const int fd = vfs().openFile(
            path_, O_WRONLY | O_APPEND | O_CREAT, 0666);
        if (fd < 0) {
            if (errnoIsTransient(-fd) && attempt < 4) {
                vfs().sleepMs(retryDelayMs(id, index, attempt));
                continue;
            }
            throwIo(VfsOp::Open, path_, fd);
        }
        std::size_t landed = 0;
        long fail_rc =
            vfsWriteAll(fd, line.data(), line.size(), landed);
        VfsOp fail_op = VfsOp::Write;
        if (fail_rc == 0) {
            const int sync_rc = vfs().fsyncFd(fd);
            if (sync_rc < 0) {
                fail_rc = sync_rc;
                fail_op = VfsOp::Fsync;
            }
        }
        const int close_rc = vfs().closeFd(fd);
        if (fail_rc == 0 && close_rc < 0) {
            fail_rc = close_rc;
            fail_op = VfsOp::Close;
        }
        if (fail_rc == 0)
            return;
        const bool retriable = landed == 0 &&
                               fail_op == VfsOp::Write &&
                               errnoIsTransient(
                                   static_cast<int>(-fail_rc));
        if (retriable && attempt < 4) {
            vfs().sleepMs(retryDelayMs(id, index, attempt));
            continue;
        }
        // Partial writes and fsync/close failures are never
        // retried: the record may be (partly) in the log already.
        throw IoError(
            "'" + path_ + "': manifest append " +
                vfsOpName(fail_op) + " failed" +
                (landed != 0 && landed < line.size()
                     ? " after " + std::to_string(landed) +
                           " of " + std::to_string(line.size()) +
                           " bytes (torn tail line left for the "
                           "fold to discard)"
                     : "") +
                ": " +
                std::strerror(static_cast<int>(-fail_rc)),
            static_cast<int>(-fail_rc), false);
    }
}

double
ManifestTiming::cellsPerMinute() const
{
    if (doneEvents == 0)
        return 0.0;
    // Prefer the campaign-start stamp (covers the whole elapsed
    // window); manifests predating header stamps fall back to the
    // first-to-last done interval, which needs two events.
    double window = 0.0;
    if (startT > 0.0 && lastDoneT > startT) {
        window = lastDoneT - startT;
    } else if (doneEvents >= 2 && lastDoneT > firstDoneT) {
        window = lastDoneT - firstDoneT;
    }
    if (window <= 0.0)
        return 0.0;
    return 60.0 * static_cast<double>(doneEvents) / window;
}

ManifestTiming
foldManifestTiming(const std::string &path)
{
    ManifestTiming timing;
    std::vector<std::uint8_t> bytes;
    try {
        bytes = readFileBytes(path);
    } catch (const CkptError &) {
        return timing; // advisory only: no manifest, no rates
    }
    const std::string text(bytes.begin(), bytes.end());

    auto workerSlot =
        [&timing](const std::string &name) -> WorkerTiming & {
        for (auto &entry : timing.workers) {
            if (entry.first == name)
                return entry.second;
        }
        timing.workers.emplace_back(name, WorkerTiming{});
        return timing.workers.back().second;
    };

    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos)
            break; // torn final line: no timing either
        const std::string line =
            manifestEventPayload(text.substr(at, nl - at));
        at = nl + 1;

        std::string type;
        if (!jsonFieldStr(line, "type", type))
            continue;
        double t = 0.0;
        const bool stamped = jsonFieldF64(line, "t", t) && t > 0.0;
        if (type == "header") {
            if (stamped)
                timing.startT = t;
            continue;
        }
        if (type != "cell" || !stamped)
            continue;
        std::string status;
        if (!jsonFieldStr(line, "status", status))
            continue;
        std::string worker;
        const bool hasWorker =
            jsonFieldStr(line, "worker", worker) &&
            !worker.empty();
        if (hasWorker) {
            WorkerTiming &w = workerSlot(worker);
            if (w.firstT == 0.0 || t < w.firstT)
                w.firstT = t;
            if (t > w.lastT)
                w.lastT = t;
            if (status == "done")
                ++w.done;
        }
        if (status != "done")
            continue;
        ++timing.doneEvents;
        if (timing.firstDoneT == 0.0 || t < timing.firstDoneT)
            timing.firstDoneT = t;
        if (t > timing.lastDoneT)
            timing.lastDoneT = t;
    }
    return timing;
}

namespace {

void
appendReportLine(std::string &out, std::size_t index,
                 const CampaignCell &cell, const CellOutcome &o)
{
    char buf[256];
    if (o.failed) {
        std::snprintf(buf, sizeof(buf),
                      "cell %3zu   : %-24s FAILED after %llu "
                      "attempts: ",
                      index, o.label.c_str(),
                      static_cast<unsigned long long>(o.attempts));
        out += buf;
        out += o.error;
        out += '\n';
        return;
    }
    std::snprintf(buf, sizeof(buf),
                  "cell %3zu   : %-24s throughput=%.6f "
                  "performance=%.6f final=%s",
                  index, o.label.c_str(), o.throughput,
                  o.performance, o.finalTopology.c_str());
    out += buf;
    if (cell.spec.scheme == "morph") {
        std::snprintf(buf, sizeof(buf),
                      " merges=%llu splits=%llu",
                      static_cast<unsigned long long>(o.merges),
                      static_cast<unsigned long long>(o.splits));
        out += buf;
    }
    out += '\n';
}

} // namespace

RenderedReport
renderCampaignReport(const std::vector<CampaignCell> &cells,
                     const std::vector<CellOutcome> &outcomes)
{
    RenderedReport report;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "campaign   : %zu cells\n",
                  cells.size());
    report.reportText = buf;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellOutcome &o = outcomes[i];
        appendReportLine(report.reportText, i, cells[i], o);
        if (o.failed)
            ++report.failed;
        else
            ++report.done;
    }
    std::snprintf(buf, sizeof(buf),
                  "campaign   : %zu done, %zu failed\n", report.done,
                  report.failed);
    report.reportText += buf;

    std::string doc = "[\n";
    bool first = true;
    for (const CellOutcome &o : outcomes) {
        if (o.failed || o.statsJson.empty())
            continue;
        if (!first)
            doc += ",\n";
        first = false;
        doc += o.statsJson;
    }
    doc += "\n]\n";
    report.statsJsonArray = std::move(doc);
    return report;
}

RenderedReport
mergeCampaignResults(const std::string &manifestPath,
                     const std::vector<CampaignCell> &cells)
{
    const std::string dir = campaignStateDir(manifestPath);
    std::vector<CellOutcome> outcomes(cells.size());
    std::size_t missing = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string path = cellResultPath(dir, i);
        if (!fileExists(path)) {
            ++missing;
            continue;
        }
        const std::vector<std::uint8_t> bytes = readFileBytes(path);
        outcomes[i] = parseOutcome(
            path, std::string(bytes.begin(), bytes.end()));
    }
    if (missing != 0) {
        RenderedReport partial;
        partial.missing = missing;
        return partial;
    }
    return renderCampaignReport(cells, outcomes);
}

std::vector<CampaignCell>
CampaignPlan::cells() const
{
    std::vector<CampaignCell> out;
    std::uint64_t cell_index = 0;
    for (std::uint32_t rep = 0; rep < sweepSeeds; ++rep) {
        for (std::uint32_t m = mixLo; m <= mixHi; ++m) {
            CampaignCell cell;
            cell.spec = base;
            char workload[16];
            std::snprintf(workload, sizeof(workload), "mix:%u", m);
            cell.spec.workload = workload;
            cell.spec.seed = sweepCellSeed(base.seed, cell_index);
            char label[64];
            std::snprintf(
                label, sizeof(label), "mix:%02u seed=%llu", m,
                static_cast<unsigned long long>(cell.spec.seed));
            cell.label = label;
            out.push_back(std::move(cell));
            ++cell_index;
        }
    }
    return out;
}

std::string
CampaignPlan::jsonLine() const
{
    // The base spec rides as hex-encoded saveSpec bytes: the exact
    // binary serializer checkpoints use, so doubles (fault
    // probabilities) round-trip bit-exactly and the plan can never
    // disagree with the checkpoint format about what a spec is.
    CkptWriter w;
    saveSpec(w, base);
    std::string hex;
    hex.reserve(w.buffer().size() * 2);
    for (std::uint8_t byte : w.buffer()) {
        char pair[4];
        std::snprintf(pair, sizeof(pair), "%02x", byte);
        hex += pair;
    }
    return "{\"type\":\"plan\",\"version\":1,\"mixLo\":" +
           std::to_string(mixLo) + ",\"mixHi\":" +
           std::to_string(mixHi) + ",\"sweepSeeds\":" +
           std::to_string(sweepSeeds) + ",\"base\":\"" + hex +
           "\"}\n";
}

CampaignPlan
planFromManifest(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    const std::string text(bytes.begin(), bytes.end());

    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos)
            break;
        const std::string line = text.substr(at, nl - at);
        at = nl + 1;

        std::string type;
        if (!jsonFieldStr(line, "type", type) || type != "plan")
            continue;

        CampaignPlan plan;
        std::uint64_t lo = 0, hi = 0, seeds = 0;
        std::string hex;
        if (!jsonFieldU64(line, "mixLo", lo) ||
            !jsonFieldU64(line, "mixHi", hi) ||
            !jsonFieldU64(line, "sweepSeeds", seeds) ||
            !jsonFieldStr(line, "base", hex) ||
            hex.size() % 2 != 0) {
            throw CkptError("'" + path +
                            "': malformed campaign plan line");
        }
        plan.mixLo = static_cast<std::uint32_t>(lo);
        plan.mixHi = static_cast<std::uint32_t>(hi);
        plan.sweepSeeds = static_cast<std::uint32_t>(seeds);

        std::vector<std::uint8_t> raw;
        raw.reserve(hex.size() / 2);
        for (std::size_t i = 0; i < hex.size(); i += 2) {
            char pair[3] = {hex[i], hex[i + 1], '\0'};
            char *end = nullptr;
            const unsigned long v = std::strtoul(pair, &end, 16);
            if (end != pair + 2) {
                throw CkptError("'" + path +
                                "': non-hex byte in campaign plan "
                                "base spec");
            }
            raw.push_back(static_cast<std::uint8_t>(v));
        }
        CkptReader r(path + " (plan base spec)", raw);
        plan.base = loadSpec(r);
        if (r.remaining() != 0)
            r.fail("trailing bytes after plan base spec");
        return plan;
    }
    throw CkptError(
        "'" + path + "': manifest carries no campaign plan; only "
        "manifests written by `mc_campaign init` embed the cell "
        "recipe workers need");
}

void
initManifestWithPlan(const std::string &path,
                     const CampaignPlan &plan)
{
    const std::vector<CampaignCell> cellList = plan.cells();
    if (cellList.empty())
        throw ConfigError("campaign plan generates no cells");
    // Transient errnos (ESTALE on NFS) retry like atomicWriteFile's;
    // a repeat after a success that reported failure sees the benign
    // EEXIST/ENOENT.
    const std::string dir = campaignStateDir(path);
    retryTransientIo(dir, [&] {
        const int mk_rc = vfs().mkdirPath(dir);
        if (mk_rc < 0 && mk_rc != -EEXIST)
            throwIo(VfsOp::Mkdir, dir, mk_rc);
    });

    std::string doc = manifestHeaderLine(
        cellList.size(), campaignHash(cellList), unixNowSec());
    doc += plan.jsonLine();
    for (std::size_t i = 0; i < cellList.size(); ++i) {
        doc += "{\"type\":\"cell\",\"index\":" + std::to_string(i) +
               ",\"status\":\"pending\",\"attempts\":0}\n";
        // Clear any stale state a previous campaign under the same
        // manifest path left behind, so cells never restore from
        // another campaign's checkpoints, results, or leases. ENOENT
        // is the common case (nothing there); a failure that
        // outlasts the retry means the stale file survived — workers
        // would skip a cell whose old result exists and merge would
        // render it — so it is a typed error before the manifest is
        // written.
        const std::string stale[] = {
            cellCkptPath(dir, i),
            cellCkptPath(dir, i) + ".prev",
            cellResultPath(dir, i),
            cellLeasePath(dir, i),
        };
        for (const std::string &file : stale) {
            retryTransientIo(file, [&] {
                const int rm_rc = vfs().unlinkPath(file);
                if (rm_rc < 0 && rm_rc != -ENOENT)
                    throwIo(VfsOp::Unlink, file, rm_rc);
            });
        }
    }
    atomicWriteFile(path, doc.data(), doc.size());
}

} // namespace morphcache
