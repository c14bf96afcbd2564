/**
 * @file
 * Simulator-wide hierarchical statistics registry (gem5-style).
 *
 * Every component registers its tallies under a dotted name
 * (`sim.core3.misses`, `hier.l2.slice2.fills`, `bus.l2.seg1.
 * queueCycles`, `morph.merges.condII`, `check.detections`). Two
 * registration styles are supported:
 *
 *  - owned counters: the registry owns a uint64 slot and hands back
 *    a stable reference the component bumps on its hot path;
 *  - bound stats: a callback sampled at snapshot/dump time, which is
 *    how the existing per-component POD stat structs (CoreStats,
 *    LevelStats, ReconfigStats, ...) migrate onto the registry
 *    without adding a single instruction to the access path.
 *
 * Epoch-granularity visibility comes from snapshotEpoch(): each call
 * samples every registered stat; counters are reported as per-epoch
 * deltas, scalars as sampled values. Dumps are JSON (full: final
 * values, per-epoch table, histograms) or CSV (per-epoch table),
 * both stamped with a `seed/config` provenance header.
 */

#ifndef MORPHCACHE_STATS_REGISTRY_HH
#define MORPHCACHE_STATS_REGISTRY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "stats/stats.hh"

namespace morphcache {

/** How a registered stat is sampled and reported. */
enum class StatKind : std::uint8_t {
    /** Monotonic count; per-epoch reporting shows the delta. */
    Counter,
    /** Point-in-time value; per-epoch reporting shows the sample. */
    Scalar,
};

/** Reproducibility stamp included in every dump. */
struct StatsMeta
{
    std::uint64_t seed = 0;
    /** Hash (hex) of the run configuration; see configHashHex(). */
    std::string configHash;
};

class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    /**
     * Register an owned counter and return a stable reference to
     * its slot. panic()s on a duplicate name.
     */
    std::uint64_t &counter(const std::string &name,
                           const std::string &desc = "");

    /** Register a callback-sampled counter (monotonic uint64). */
    void bindCounter(const std::string &name,
                     std::function<std::uint64_t()> sample,
                     const std::string &desc = "");

    /** Register a callback-sampled scalar (gauge). */
    void bindScalar(const std::string &name,
                    std::function<double()> sample,
                    const std::string &desc = "");

    /**
     * Register an owned histogram; returned reference stays valid
     * for the registry's lifetime.
     */
    Histogram &histogram(const std::string &name, double lo,
                         double hi, std::size_t buckets,
                         const std::string &desc = "");

    /** Number of registered scalar/counter stats. */
    std::size_t size() const { return entries_.size(); }

    /** Is a stat (or histogram) registered under this name? */
    bool has(const std::string &name) const;

    /** Current sampled value of a named stat; panics if unknown. */
    double value(const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Provenance stamp for dumps. */
    void setMeta(const StatsMeta &meta) { meta_ = meta; }
    const StatsMeta &meta() const { return meta_; }

    /**
     * Sample every stat as the state at the end of `epoch`.
     * Epoch ids must be strictly increasing.
     */
    void snapshotEpoch(std::uint64_t epoch);

    /** Number of epoch snapshots taken. */
    std::size_t numSnapshots() const { return snapshots_.size(); }

    /**
     * Per-epoch report row `i`: counters as deltas against the
     * previous snapshot (or zero for the first), scalars as the
     * sampled value. Ordered like names().
     */
    std::vector<double> epochRow(std::size_t i) const;

    /** Epoch id of snapshot `i`. */
    std::uint64_t epochId(std::size_t i) const;

    /**
     * Full JSON document: meta, final values, per-epoch table,
     * histograms.
     */
    std::string jsonString() const;

    /**
     * Per-epoch CSV: `# seed=... config=...` comment, then
     * `epoch,<name>,...` with one row per snapshot. Counters are
     * deltas; scalars samples. With no snapshots, one `final` row
     * of current values.
     */
    std::string csvString() const;

    /** Write jsonString() / csvString() to a file (fatal on I/O). */
    void writeJson(const std::string &path) const;
    void writeCsv(const std::string &path) const;

    /**
     * Serialize/restore the epoch-snapshot history. Entries and
     * histograms are NOT serialized: registration is deterministic
     * at construction, so restore requires a registry whose entries
     * already match the checkpointed one (row widths are checked).
     */
    void saveState(CkptWriter &w) const;
    void loadState(CkptReader &r);

  private:
    /*
     * Names, descriptions, kinds and samplers are set by the
     * registration calls every component makes at construction, so
     * a restore finds them in place; only owned values and histogram
     * buckets are checkpointed.
     */
    struct Entry
    {
        std::string name; // ckpt: derived(StatsRegistry)
        std::string desc; // ckpt: derived(StatsRegistry)
        StatKind kind = StatKind::Counter; // ckpt: derived(StatsRegistry)
        /** Owned slot (counters registered via counter()). */
        std::uint64_t owned = 0;
        bool isOwned = false;
        std::function<double()> sample; // ckpt: derived(StatsRegistry)
    };

    struct HistEntry
    {
        std::string name; // ckpt: derived(histogram)
        std::string desc; // ckpt: derived(histogram)
        Histogram hist;
    };

    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    const Entry &find(const std::string &name) const;
    void checkNewName(const std::string &name) const;
    double sampleEntry(const Entry &entry) const;

    /** deque: stable addresses for owned counter slots. */
    std::deque<Entry> entries_;
    std::deque<HistEntry> histograms_;
    std::vector<std::uint64_t> snapshotEpochs_;
    /** snapshots_[i][j] = raw sample of entry j at snapshot i. */
    std::vector<std::vector<double>> snapshots_;
    // Rebuilt by component re-registration during construction.
    StatsMeta meta_; // ckpt: derived(StatsRegistry)
};

/**
 * FNV-1a hash of a configuration description, rendered as hex —
 * the `config=<hash>` half of the reproducibility stamp.
 */
std::string configHashHex(const std::string &description);

} // namespace morphcache

#endif // MORPHCACHE_STATS_REGISTRY_HH
