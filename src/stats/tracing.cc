#include "stats/tracing.hh"

#include <fcntl.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/textfmt.hh"
#include "io/vfs.hh"

namespace morphcache {

TraceEvent::Field &
TraceEvent::next(const char *key, FieldKind kind)
{
    if (numFields >= maxFields)
        panic("trace event '%s' exceeds %zu fields", type, maxFields);
    Field &field = fields[numFields++];
    field.key = key;
    field.kind = kind;
    return field;
}

void
Tracer::emit(TraceEvent &ev)
{
    if (!sink_)
        return;
    ev.epoch = epoch_;
    ev.ts = time_;
    ev.seq = seq_++;
    sink_->event(ev);
}

namespace {

void
appendJsonString(std::string &out, const char *s)
{
    out += '"';
    out += jsonEscape(s);
    out += '"';
}

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
appendF64(std::string &out, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    out += buf;
}

void
appendFields(std::string &out, const TraceEvent &ev)
{
    for (std::size_t i = 0; i < ev.numFields; ++i) {
        const TraceEvent::Field &field = ev.fields[i];
        out += ", ";
        appendJsonString(out, field.key);
        out += ": ";
        switch (field.kind) {
          case TraceEvent::FieldKind::U64:
            appendU64(out, field.u);
            break;
          case TraceEvent::FieldKind::F64:
            appendF64(out, field.f);
            break;
          case TraceEvent::FieldKind::Str:
            appendJsonString(out, field.s ? field.s : "");
            break;
        }
    }
}

int
openForWrite(const std::string &path, int flags)
{
    const int fd = vfs().openFile(path, flags, 0666);
    if (fd < 0)
        throwIo(VfsOp::Open, path, fd);
    return fd;
}

/** Write all of `data`; advances `off` by what landed even when the
 * write fails, so a recorded resume offset never points past the
 * bytes actually on disk. */
void
writeOrThrow(int fd, const std::string &path, const char *data,
             std::size_t n, std::uint64_t &off)
{
    std::size_t landed = 0;
    const long rc = vfsWriteAll(fd, data, n, landed);
    off += landed;
    if (rc != 0)
        throwIo(VfsOp::Write, path, rc);
}

} // namespace

std::string
traceEventJson(const TraceEvent &ev)
{
    std::string out = "{\"type\": ";
    appendJsonString(out, ev.type);
    out += ", \"epoch\": ";
    appendU64(out, ev.epoch);
    out += ", \"ts\": ";
    appendU64(out, ev.ts);
    out += ", \"seq\": ";
    appendU64(out, ev.seq);
    appendFields(out, ev);
    out += '}';
    return out;
}

// --- JSONL sink -------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : path_(path),
      fd_(openForWrite(path, O_WRONLY | O_CREAT | O_TRUNC))
{
}

JsonlTraceSink::JsonlTraceSink(const std::string &path,
                               std::uint64_t resume_offset)
    : path_(path)
{
    // Truncate before opening for write: if the truncate fails the
    // typed error escapes with the pre-resume file untouched, and
    // the caller can surface it without having torn anything.
    const int trunc_rc = vfs().truncatePath(path, resume_offset);
    if (trunc_rc < 0)
        throwIo(VfsOp::Truncate, path, trunc_rc);
    fd_ = openForWrite(path, O_WRONLY | O_APPEND);
    offset_ = resume_offset;
}

JsonlTraceSink::~JsonlTraceSink()
{
    try {
        finish();
    } catch (const IoError &err) {
        // Destructors must not throw; callers that need the close
        // error (a deferred NFS flush failure) call finish() first.
        warn("trace sink close failed: %s", err.what());
    }
}

void
JsonlTraceSink::event(const TraceEvent &ev)
{
    std::string line = traceEventJson(ev);
    line += '\n';
    writeOrThrow(fd_, path_, line.data(), line.size(), offset_);
}

void
JsonlTraceSink::finish()
{
    if (fd_ < 0)
        return;
    const int rc = vfs().closeFd(fd_);
    fd_ = -1;
    if (rc < 0)
        throwIo(VfsOp::Close, path_, rc);
}

// --- Chrome trace-event sink ------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : path_(path),
      fd_(openForWrite(path, O_WRONLY | O_CREAT | O_TRUNC))
{
    std::uint64_t off = 0;
    try {
        writeOrThrow(fd_, path_, "[\n", 2, off);
    } catch (const IoError &) {
        vfs().closeFd(fd_);
        fd_ = -1;
        throw;
    }
}

ChromeTraceSink::~ChromeTraceSink()
{
    try {
        finish();
    } catch (const IoError &err) {
        warn("trace sink close failed: %s", err.what());
    }
}

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    std::string out = first_ ? "" : ",\n";
    first_ = false;
    out += "{\"name\": ";
    appendJsonString(out, ev.type);
    out += ", \"cat\": \"morphcache\", \"ph\": \"i\", \"s\": \"g\""
           ", \"pid\": 0, \"tid\": 0, \"ts\": ";
    appendU64(out, ev.ts);
    out += ", \"args\": {\"epoch\": ";
    appendU64(out, ev.epoch);
    out += ", \"seq\": ";
    appendU64(out, ev.seq);
    appendFields(out, ev);
    out += "}}";
    std::uint64_t off = 0;
    writeOrThrow(fd_, path_, out.data(), out.size(), off);
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (fd_ < 0)
        return;
    std::size_t landed = 0;
    const long tail_rc = vfsWriteAll(fd_, "\n]\n", 3, landed);
    const int close_rc = vfs().closeFd(fd_);
    fd_ = -1;
    if (tail_rc != 0)
        throwIo(VfsOp::Write, path_, tail_rc);
    if (close_rc < 0)
        throwIo(VfsOp::Close, path_, close_rc);
}

// --- String sink ------------------------------------------------

void
StringTraceSink::event(const TraceEvent &ev)
{
    text_ += traceEventJson(ev);
    text_ += '\n';
    ++numEvents_;
}

// --- Trace summary ----------------------------------------------

namespace {

/**
 * Extract the value of a top-level `"key": value` pair from one
 * JSONL line. Good enough for the fixed serialization above; not a
 * general JSON parser.
 */
bool
extractField(const std::string &line, const std::string &key,
             std::string &out)
{
    const std::string needle = "\"" + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    auto start = pos + needle.size();
    if (start >= line.size())
        return false;
    if (line[start] == '"') {
        ++start;
        const auto end = line.find('"', start);
        if (end == std::string::npos)
            return false;
        out = line.substr(start, end - start);
        return true;
    }
    auto end = start;
    while (end < line.size() && line[end] != ',' &&
           line[end] != '}') {
        ++end;
    }
    out = line.substr(start, end - start);
    return true;
}

} // namespace

TraceSummary
summarizeTrace(std::istream &in)
{
    TraceSummary summary;
    std::string line;
    while (std::getline(in, line)) {
        std::string type, epoch;
        if (!extractField(line, "type", type) ||
            !extractField(line, "epoch", epoch)) {
            continue;
        }
        const std::uint64_t e =
            std::strtoull(epoch.c_str(), nullptr, 10);
        ++summary.epochs[e][type];
        ++summary.totalByType[type];
        ++summary.totalEvents;
    }
    return summary;
}

TraceSummary
summarizeTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    return summarizeTrace(in);
}

std::string
formatTraceSummary(const TraceSummary &summary)
{
    std::string out;
    char buf[128];
    std::vector<std::string> types;
    for (const auto &[type, count] : summary.totalByType)
        types.push_back(type);

    out += "epoch   events";
    for (const std::string &type : types) {
        std::snprintf(buf, sizeof(buf), "  %10s", type.c_str());
        out += buf;
    }
    out += '\n';
    for (const auto &[epoch, byType] : summary.epochs) {
        std::uint64_t total = 0;
        for (const auto &[type, count] : byType)
            total += count;
        std::snprintf(buf, sizeof(buf), "%5llu  %7llu",
                      static_cast<unsigned long long>(epoch),
                      static_cast<unsigned long long>(total));
        out += buf;
        for (const std::string &type : types) {
            const auto it = byType.find(type);
            const std::uint64_t count =
                it == byType.end() ? 0 : it->second;
            std::snprintf(buf, sizeof(buf), "  %10llu",
                          static_cast<unsigned long long>(count));
            out += buf;
        }
        out += '\n';
    }
    std::snprintf(buf, sizeof(buf), "total  %7llu events, %zu epochs\n",
                  static_cast<unsigned long long>(
                      summary.totalEvents),
                  summary.epochs.size());
    out += buf;
    return out;
}

} // namespace morphcache
