/**
 * @file
 * Campaign manifest: the durable, shared ground truth of a campaign.
 *
 * One JSONL file holds a campaign's identity and progress:
 *
 *   {"type":"header",...}    cell count + campaign hash binding
 *   {"type":"plan",...}      optional: the cell-generation recipe
 *                            (base RunSpec + mix range + seed
 *                            replicas), so independently launched
 *                            worker processes can rebuild the exact
 *                            cell list from the manifest alone
 *   {"type":"cell",...}      append-only per-cell status events
 *                            (pending/running/done/failed with an
 *                            attempt count); the last event per cell
 *                            wins and a torn final line is ignored
 *
 * Everything here is shared by the work-stealing executor
 * (executor.cc), the mc_campaign tool, and the tests — one
 * serializer, one folder, one merge, so a campaign's merged bytes
 * cannot depend on how many workers ran it or how often they died.
 *
 * Next to the manifest lives the state directory `<manifest>.d/`
 * with per-cell checkpoint chains (`cellNNNN.ckpt[.prev]`), atomic
 * result files (`cellNNNN.result.json`), and worker lease files
 * (`cellNNNN.lease`, see lease.hh). All writes under it go through
 * atomicWriteFile or the lease API (raw rename/link outside the Vfs
 * seam fails mc_analyze's `write-path` check); the manifest itself
 * is the one sanctioned append-only writer, fsync-backed per event.
 */

#ifndef MORPHCACHE_RUNNER_MANIFEST_HH
#define MORPHCACHE_RUNNER_MANIFEST_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// retryDelayMs (the campaign retry-backoff schedule) lives in
// common/rng.hh so the durability primitives can reuse it; the
// runner's callers keep reaching it through this header.
#include "common/rng.hh"
#include "ckpt/run_spec.hh"

namespace morphcache {

/** One campaign cell: a labelled run spec. */
struct CampaignCell
{
    /** Report label ("mix:08 seed=1234"). */
    std::string label;
    RunSpec spec;
};

// ---------------------------------------------------------------
// Single-line JSON helpers (our own records only — one object per
// line, scalar fields, no nesting except the trailing "stats").
// ---------------------------------------------------------------

/** Offset just past `"key":` in `text`, or npos. */
std::size_t findJsonKey(const std::string &text, const char *key);

bool jsonFieldU64(const std::string &text, const char *key,
                  std::uint64_t &out);
bool jsonFieldF64(const std::string &text, const char *key,
                  double &out);
bool jsonFieldStr(const std::string &text, const char *key,
                  std::string &out);

// ---------------------------------------------------------------
// Campaign identity and state-directory layout
// ---------------------------------------------------------------

/** Identity of a campaign: its cell labels, specs, and seeds. */
std::uint64_t campaignHash(const std::vector<CampaignCell> &cells);

/** State directory of a manifest: `<manifest>.d`. */
std::string campaignStateDir(const std::string &manifestPath);

std::string cellCkptPath(const std::string &dir, std::size_t i);
std::string cellResultPath(const std::string &dir, std::size_t i);
std::string cellLeasePath(const std::string &dir, std::size_t i);

bool fileExists(const std::string &path);

// ---------------------------------------------------------------
// Per-cell outcome records (the durable result files)
// ---------------------------------------------------------------

/** What one completed (or terminally failed) cell produced. */
struct CellOutcome
{
    bool ok = false;
    bool failed = false;
    std::string label;
    std::uint64_t seed = 0;
    std::uint64_t attempts = 0;
    double throughput = 0.0;
    double performance = 0.0;
    std::string finalTopology;
    std::uint64_t merges = 0;
    std::uint64_t splits = 0;
    std::string statsJson;
    std::string error;
};

/**
 * Render an outcome as its durable result record: one JSON line of
 * scalar fields (doubles as %.17g so they re-parse bit-exactly),
 * with the raw stats-registry document nested under "stats".
 */
std::string serializeOutcome(const CellOutcome &o);

/** Parse a result record; throws CkptError naming `path` on any
 * missing or malformed field. */
CellOutcome parseOutcome(const std::string &path,
                         const std::string &text);

// ---------------------------------------------------------------
// Manifest fold + append
// ---------------------------------------------------------------

/** Manifest fold state of one cell. */
struct CellProgress
{
    std::string status = "pending";
    std::uint64_t attempts = 0;
};

/**
 * Render the manifest header. `unix_t` (seconds since the epoch, 0
 * = omit) stamps campaign start so `mc_campaign status` can compute
 * throughput from the manifest alone; the fold ignores it, so
 * timing never feeds report bytes.
 */
std::string manifestHeaderLine(std::size_t cells,
                               std::uint64_t hash,
                               double unix_t = 0.0);

/**
 * Fold a manifest into last-event-per-cell progress. Verifies the
 * header's cell count and campaign hash against this campaign
 * (typed CkptError on mismatch), tolerates a torn final line and
 * malformed events (warned, skipped), ignores unknown record types.
 */
std::vector<CellProgress> foldManifest(const std::string &path,
                                       std::size_t num_cells,
                                       std::uint64_t hash);

/**
 * The append-only manifest event writer. One buffered write +
 * fsync per event, serialized by an internal mutex (workers in the
 * same process) and by O_APPEND (workers in other processes), so a
 * crash tears at most the final line — which the fold ignores.
 */
class ManifestLog
{
  public:
    explicit ManifestLog(std::string path) : path_(std::move(path))
    {
    }

    /**
     * Worker identity stamped into subsequent events (empty =
     * omitted). Display-only: `mc_campaign status` attributes
     * throughput per worker from it; the fold never reads it.
     */
    void setWorker(std::string worker)
    {
        worker_ = std::move(worker);
    }

    /**
     * Append one cell status event, stamped with the worker id (if
     * set) and the civil time; throws a typed IoError on I/O
     * failure. Failures with zero bytes landed retry with bounded
     * seeded-jitter backoff; once any byte of the record is in the
     * log, the append never retries (a re-append would merge with
     * the torn prefix into one line) and the fold's
     * last-record-marker parse discards the torn bytes instead.
     * Stamps ride as extra fields the fold ignores, so merged
     * report bytes stay schedule-independent.
     */
    void appendCell(std::size_t index, const char *status,
                    std::uint64_t attempts);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::string worker_;
    std::mutex mutex_;
};

// ---------------------------------------------------------------
// Progress-rate fold (mc_campaign status telemetry)
// ---------------------------------------------------------------

/** Observed event timing of one worker. */
struct WorkerTiming
{
    /** Cells this worker completed (`done` events it stamped). */
    std::size_t done = 0;
    /** Civil time of its earliest / latest stamped event. */
    double firstT = 0.0;
    double lastT = 0.0;
};

/** Timestamp aggregate of a manifest (all values unix seconds). */
struct ManifestTiming
{
    /** Campaign start: header stamp, else earliest event stamp. */
    double startT = 0.0;
    /** Earliest / latest `done` event stamps. */
    double firstDoneT = 0.0;
    double lastDoneT = 0.0;
    /** Total `done` events carrying a timestamp. */
    std::size_t doneEvents = 0;
    /** Per-worker attribution, insertion-ordered by first event. */
    std::vector<std::pair<std::string, WorkerTiming>> workers;

    /**
     * Completed cells per minute over the campaign so far, derived
     * purely from event stamps; 0 when the manifest predates
     * timestamps or carries fewer than the needed events.
     */
    double cellsPerMinute() const;
};

/**
 * Scan a manifest for event timestamps. Purely advisory (progress
 * lines, ETA): malformed lines and events without stamps are
 * skipped silently, and nothing here feeds deterministic output.
 */
ManifestTiming foldManifestTiming(const std::string &path);

// ---------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------

/** A fully rendered campaign report. */
struct RenderedReport
{
    /** Per-cell report block; no paths, no timing. */
    std::string reportText;
    /** JSON array of the done cells' stats registries. */
    std::string statsJsonArray;
    std::size_t done = 0;
    std::size_t failed = 0;
    /** Cells without a result file (mergeCampaignResults only);
     * nothing is rendered unless this is 0. */
    std::size_t missing = 0;
};

/**
 * Render the canonical campaign report from per-cell outcomes.
 * Pure function of (cells, outcomes): contains no paths, timing,
 * worker identity, or attempt counts for successful cells, so a
 * -j1 run, a -jN run, a resumed run, and a multi-worker campaign
 * all emit identical bytes.
 */
RenderedReport
renderCampaignReport(const std::vector<CampaignCell> &cells,
                     const std::vector<CellOutcome> &outcomes);

/**
 * Merge a campaign's result files (`mc_campaign merge`): read every
 * cell's result under the manifest's state directory and render the
 * report. When some cells have no result yet, returns only their
 * count in `missing`. A result file that exists but does not parse
 * is a typed CkptError naming the file (delete it and rerun `work`).
 */
RenderedReport
mergeCampaignResults(const std::string &manifestPath,
                     const std::vector<CampaignCell> &cells);

// ---------------------------------------------------------------
// Campaign plan (manifest-embedded cell recipe)
// ---------------------------------------------------------------

/**
 * The recipe that generates a campaign's cell list: a base RunSpec
 * swept over a mix range × seed replicas. Serialized into the
 * manifest as a `{"type":"plan",...}` line (the base spec rides as
 * hex-encoded saveSpec bytes, so doubles round-trip bit-exactly),
 * letting any worker process — launched from any shell or host
 * sharing the filesystem — rebuild the exact cell list, labels,
 * and seeds from the manifest alone.
 */
struct CampaignPlan
{
    /** Base spec; its workload field is replaced per cell. */
    RunSpec base;
    std::uint32_t mixLo = 1;
    std::uint32_t mixHi = 12;
    std::uint32_t sweepSeeds = 1;

    /**
     * The cell list: rep-major, mix-minor, seeds derived via
     * sweepCellSeed(base.seed, cellIndex), labelled
     * "mix:<NN> seed=<seed>".
     */
    std::vector<CampaignCell> cells() const;

    /** One-line JSON record for the manifest. */
    std::string jsonLine() const;
};

/**
 * Recover the plan line from a manifest. Throws CkptError when the
 * manifest has no plan (it was not written by initManifestWithPlan)
 * or the plan is malformed.
 */
CampaignPlan planFromManifest(const std::string &path);

/**
 * Write a fresh manifest atomically: header, plan line, and one
 * pending event per cell. Creates the state directory and clears
 * any stale per-cell state a previous campaign under the same path
 * left behind; a stale file that cannot be removed is a typed
 * IoError, thrown before the new manifest is written.
 */
void initManifestWithPlan(const std::string &path,
                          const CampaignPlan &plan);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_MANIFEST_HH
