/**
 * @file
 * Decision-provenance event tracing.
 *
 * When a run diverges from the paper, end-of-run aggregates cannot
 * say *which* merge fired on *what* ACF evidence at *which* epoch.
 * The tracer answers that: components emit structured events for
 * every epoch boundary, MSAT classification, accepted merge/split
 * (with the condition — (i) capacity, (ii) sharing, or split — and
 * the utilization/overlap readings that justified it), topology
 * change, quarantine transition, and bus-contention sample.
 *
 * Events flow through a pluggable TraceSink: JSONL (one JSON object
 * per line, the machine-readable default) or Chrome trace-event
 * format (load the file in about://tracing or ui.perfetto.dev for a
 * timeline). Tracing is off by default and zero-allocation when
 * disabled: every emitter checks Tracer::enabled() before touching
 * an event, and events themselves are fixed-size stack objects.
 *
 * Timestamps are *simulated* CPU cycles (plus a per-event sequence
 * number), never wall-clock — two runs with the same seed produce
 * bit-identical trace files.
 */

#ifndef MORPHCACHE_STATS_TRACING_HH
#define MORPHCACHE_STATS_TRACING_HH

#include <cstdint>
#include <cstdio>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "common/serial.hh"

namespace morphcache {

/**
 * One structured trace event: a type tag plus up to maxFields typed
 * key/value fields. Fixed-size and stack-allocated; string values
 * are borrowed pointers that must outlive the emit() call (sinks
 * serialize immediately).
 */
struct TraceEvent
{
    static constexpr std::size_t maxFields = 12;

    enum class FieldKind : std::uint8_t { U64, F64, Str };

    struct Field
    {
        const char *key = nullptr;
        FieldKind kind = FieldKind::U64;
        std::uint64_t u = 0;
        double f = 0.0;
        const char *s = nullptr;
    };

    explicit TraceEvent(const char *type_) : type(type_) {}

    TraceEvent &
    u64(const char *key, std::uint64_t value)
    {
        Field &field = next(key, FieldKind::U64);
        field.u = value;
        return *this;
    }

    TraceEvent &
    f64(const char *key, double value)
    {
        Field &field = next(key, FieldKind::F64);
        field.f = value;
        return *this;
    }

    TraceEvent &
    str(const char *key, const char *value)
    {
        Field &field = next(key, FieldKind::Str);
        field.s = value;
        return *this;
    }

    const char *type;
    /** Stamped by Tracer::emit(). */
    std::uint64_t epoch = 0;
    std::uint64_t ts = 0;
    std::uint64_t seq = 0;
    Field fields[maxFields];
    std::size_t numFields = 0;

  private:
    Field &next(const char *key, FieldKind kind);
};

/** Receives serialized trace events. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** One event; must serialize borrowed strings immediately. */
    virtual void event(const TraceEvent &ev) = 0;

    /** End of stream (write trailers, flush). */
    virtual void finish() {}
};

/**
 * The handle components emit through. A null sink disables tracing;
 * emitters must gate event construction on enabled() so the
 * disabled path costs one pointer test.
 */
class Tracer
{
  public:
    explicit Tracer(TraceSink *sink = nullptr) : sink_(sink) {}

    bool enabled() const { return sink_ != nullptr; }

    void setSink(TraceSink *sink) { sink_ = sink; }

    /** Current epoch, stamped into every event. */
    void setEpoch(std::uint64_t epoch) { epoch_ = epoch; }
    std::uint64_t epoch() const { return epoch_; }

    /** Current simulated time (CPU cycles), stamped into events. */
    void setTime(std::uint64_t cycles) { time_ = cycles; }
    std::uint64_t time() const { return time_; }

    /** Stamp epoch/ts/seq and forward to the sink. */
    void emit(TraceEvent &ev);

    /** Events emitted so far. */
    std::uint64_t eventCount() const { return seq_; }

    /**
     * Serialize/restore the stamping state (epoch, simulated time,
     * sequence counter) so a resumed run numbers events exactly
     * where the interrupted run stopped.
     */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.u64(self.epoch_);
        ar.u64(self.time_);
        ar.u64(self.seq_);
    }

    TraceSink *sink_; // ckpt: transient(wiring; reattached by owner)
    std::uint64_t epoch_ = 0;
    std::uint64_t time_ = 0;
    std::uint64_t seq_ = 0;
};

/** JSONL sink: one JSON object per line. */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Opens `path` for writing; typed IoError on failure. */
    explicit JsonlTraceSink(const std::string &path);

    /**
     * Resume an interrupted trace: truncate `path` to
     * `resume_offset` bytes (the offset a checkpoint recorded) and
     * append from there, discarding any events written after the
     * checkpoint was taken. A truncate failure surfaces as a typed
     * IoError *before* the file is opened for writing, so the
     * pre-resume bytes stay exactly as the checkpoint left them.
     */
    JsonlTraceSink(const std::string &path,
                   std::uint64_t resume_offset);

    ~JsonlTraceSink() override;

    /** Appends one line; typed IoError on write failure. */
    void event(const TraceEvent &ev) override;

    /**
     * Close the file; typed IoError on close failure (a deferred
     * flush error on NFS surfaces here). The destructor calls this
     * too but demotes the error to a warning — callers that need
     * the error call finish() themselves.
     */
    void finish() override;

    /**
     * The tracked file byte offset — the value a checkpoint stores
     * so resume can truncate back to it. Bytes that reached the fd
     * before a failed write still count, so the recorded offset
     * never points past what is on disk.
     */
    std::uint64_t byteOffset() const { return offset_; }

  private:
    std::string path_;
    int fd_ = -1;
    std::uint64_t offset_ = 0;
};

/**
 * Chrome trace-event sink: a JSON array of instant events with
 * `ts` in simulated cycles (rendered as microseconds by the
 * about://tracing / Perfetto timeline).
 */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(const std::string &path);
    ~ChromeTraceSink() override;

    void event(const TraceEvent &ev) override;

    /** Write the JSON trailer and close; typed IoError on failure
     * (demoted to a warning when invoked from the destructor). */
    void finish() override;

  private:
    std::string path_;
    int fd_ = -1;
    bool first_ = true;
    bool finished_ = false;
};

/** In-memory JSONL sink (tests, determinism checks). */
class StringTraceSink : public TraceSink
{
  public:
    void event(const TraceEvent &ev) override;

    const std::string &text() const { return text_; }
    std::size_t numEvents() const { return numEvents_; }

  private:
    std::string text_;
    std::size_t numEvents_ = 0;
};

/** Serialize one event as a single JSON line (no trailing \n). */
std::string traceEventJson(const TraceEvent &ev);

/** Per-epoch event counts extracted from a JSONL trace. */
struct TraceSummary
{
    /** epoch -> (event type -> count). */
    std::map<std::uint64_t, std::map<std::string, std::uint64_t>>
        epochs;
    std::map<std::string, std::uint64_t> totalByType;
    std::uint64_t totalEvents = 0;
};

/**
 * Summarize a JSONL trace stream: count events per epoch and per
 * type. Lines that are not JSONL trace events are ignored (a Chrome
 * trace will summarize as empty).
 */
TraceSummary summarizeTrace(std::istream &in);

/** Summarize a JSONL trace file; fatal() if unreadable. */
TraceSummary summarizeTraceFile(const std::string &path);

/** Render a summary as the `--trace-summary` report table. */
std::string formatTraceSummary(const TraceSummary &summary);

} // namespace morphcache

#endif // MORPHCACHE_STATS_TRACING_HH
