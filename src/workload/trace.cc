#include "workload/trace.hh"
#include <cstring>

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/serial.hh"

namespace morphcache {

namespace {

constexpr char traceMagic[4] = {'M', 'C', 'T', 'R'};
constexpr std::uint32_t traceVersion = 1;

/**
 * Byte reader over a trace file. Owns the FILE handle (closed on
 * scope exit, including the throwing paths) and tracks the byte
 * offset so every TraceError names the file and position — a
 * corrupt multi-gigabyte trace is debuggable only with that
 * context.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path) : path_(path)
    {
        f_ = std::fopen(path.c_str(), "rb");
        if (!f_)
            throw TraceError("cannot open trace file '" + path + "'");
    }

    ~TraceReader()
    {
        if (f_)
            std::fclose(f_);
    }

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw TraceError("'" + path_ + "' at byte " +
                         std::to_string(offset_) + ": " + what);
    }

    /** Next record kind byte, or EOF at a clean record boundary. */
    int
    kind()
    {
        const int c = std::fgetc(f_);
        if (c != EOF)
            ++offset_;
        return c;
    }

    std::uint8_t
    byte(const char *what)
    {
        const int c = std::fgetc(f_);
        if (c == EOF)
            fail(std::string("truncated reading ") + what);
        ++offset_;
        return static_cast<std::uint8_t>(c);
    }

    void
    bytes(void *out, std::size_t n, const char *what)
    {
        if (std::fread(out, 1, n, f_) != n)
            fail(std::string("truncated reading ") + what);
        offset_ += n;
    }

    std::uint32_t
    u32(const char *what)
    {
        unsigned char b[4];
        bytes(b, 4, what);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64(const char *what)
    {
        unsigned char b[8];
        bytes(b, 8, what);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }

  private:
    std::string path_;
    std::FILE *f_ = nullptr;
    std::uint64_t offset_ = 0;
};

} // namespace

std::uint64_t
Trace::totalReferences() const
{
    std::uint64_t total = 0;
    for (const auto &epoch : epochs) {
        for (const auto &core : epoch)
            total += core.size();
    }
    return total;
}

Trace
recordTrace(Workload &workload, std::uint32_t num_epochs,
            std::uint64_t refs_per_epoch)
{
    Trace trace;
    trace.numCores = workload.numCores();
    trace.epochs.resize(num_epochs);
    for (std::uint32_t e = 0; e < num_epochs; ++e) {
        workload.beginEpoch(e);
        trace.epochs[e].resize(trace.numCores);
        for (std::uint32_t c = 0; c < trace.numCores; ++c) {
            trace.epochs[e][c].reserve(refs_per_epoch);
            for (std::uint64_t i = 0; i < refs_per_epoch; ++i) {
                trace.epochs[e][c].push_back(
                    workload.next(static_cast<CoreId>(c)));
            }
        }
    }
    return trace;
}

void
writeTrace(const Trace &trace, const std::string &path)
{
    // Encode in memory and land the file atomically (write to
    // `<path>.tmp`, then rename): a crash mid-write must not leave a
    // torn trace behind for a later replay to trip over.
    CkptWriter out;
    out.bytes(traceMagic, 4);
    out.u32(traceVersion);
    out.u32(trace.numCores);
    for (std::uint32_t e = 0; e < trace.epochs.size(); ++e) {
        out.u8(1); // epoch marker
        out.u32(e);
        for (std::uint32_t c = 0; c < trace.numCores; ++c) {
            for (const MemAccess &access : trace.epochs[e][c]) {
                out.u8(0); // access record
                const std::uint16_t core = access.core;
                out.u8(static_cast<std::uint8_t>(core & 0xff));
                out.u8(static_cast<std::uint8_t>((core >> 8) & 0xff));
                out.u8(access.type == AccessType::Write ? 1 : 0);
                out.u64(access.addr);
            }
        }
    }
    try {
        atomicWriteFile(path, out.buffer());
    } catch (const CkptError &e) {
        fatal("error writing trace file: %s", e.what());
    }
}

Trace
readTrace(const std::string &path)
{
    TraceReader in(path);
    unsigned char magic[4];
    in.bytes(magic, 4, "magic");
    if (std::memcmp(magic, traceMagic, 4) != 0)
        throw TraceError("'" + path + "' is not a MorphCache trace");
    const std::uint32_t version = in.u32("version");
    if (version != traceVersion) {
        in.fail("unsupported trace version " +
                std::to_string(version) + " (expected " +
                std::to_string(traceVersion) + ")");
    }

    Trace trace;
    trace.numCores = in.u32("core count");
    if (trace.numCores == 0 || trace.numCores > 1024) {
        in.fail("implausible core count " +
                std::to_string(trace.numCores));
    }

    int kind;
    while ((kind = in.kind()) != EOF) {
        if (kind == 1) {
            const std::uint32_t epoch = in.u32("epoch marker");
            if (epoch != trace.epochs.size()) {
                in.fail("out-of-order epoch marker " +
                        std::to_string(epoch) + " (expected " +
                        std::to_string(trace.epochs.size()) + ")");
            }
            trace.epochs.emplace_back(trace.numCores);
        } else if (kind == 0) {
            if (trace.epochs.empty())
                in.fail("access record before first epoch marker");
            const std::uint8_t lo = in.byte("access record");
            const std::uint8_t hi = in.byte("access record");
            const std::uint8_t type = in.byte("access record");
            MemAccess access;
            access.core = static_cast<CoreId>(lo | (hi << 8));
            access.type = type ? AccessType::Write
                               : AccessType::Read;
            access.addr = in.u64("access address");
            if (access.core >= trace.numCores) {
                in.fail("access record for core " +
                        std::to_string(access.core) +
                        " but the trace declares " +
                        std::to_string(trace.numCores) + " cores");
            }
            trace.epochs.back()[access.core].push_back(access);
        } else {
            in.fail("corrupt record kind " + std::to_string(kind));
        }
    }
    return trace;
}

TraceWorkload::TraceWorkload(Trace trace, bool shared_address_space)
    : trace_(std::move(trace)),
      sharedAddressSpace_(shared_address_space),
      cursor_(trace_.numCores, 0)
{
    if (trace_.numCores == 0)
        throw TraceError("trace declares zero cores");
    if (trace_.epochs.empty())
        throw TraceError("trace contains no epochs");
    for (std::size_t e = 0; e < trace_.epochs.size(); ++e) {
        if (trace_.epochs[e].size() != trace_.numCores) {
            throw TraceError(
                "trace epoch " + std::to_string(e) + " has " +
                std::to_string(trace_.epochs[e].size()) +
                " per-core sequences but the trace declares " +
                std::to_string(trace_.numCores) + " cores");
        }
        for (std::uint32_t c = 0; c < trace_.numCores; ++c) {
            if (trace_.epochs[e][c].empty()) {
                throw TraceError(
                    "trace epoch " + std::to_string(e) +
                    " has no references for core " +
                    std::to_string(c) + "; replay would stall");
            }
        }
    }
}

MemAccess
TraceWorkload::next(CoreId core)
{
    MC_ASSERT(core < trace_.numCores);
    const auto &seq = trace_.epochs[epoch_][core];
    MC_ASSERT(!seq.empty());
    if (cursor_[core] >= seq.size()) {
        cursor_[core] = 0;
        ++wraps_;
    }
    return seq[cursor_[core]++];
}

void
TraceWorkload::beginEpoch(EpochId epoch)
{
    epoch_ = epoch % trace_.epochs.size();
    for (auto &cursor : cursor_)
        cursor = 0;
}

std::uint32_t
TraceWorkload::numCores() const
{
    return trace_.numCores;
}

std::unique_ptr<Workload>
TraceWorkload::clone() const
{
    return std::make_unique<TraceWorkload>(*this);
}

template <class Ar, class Self>
void
TraceWorkload::checkpointFields(Ar &ar, Self &self)
{
    ar.u64AtMost("trace epoch index", self.epoch_,
                 self.trace_.epochs.size() - 1);
    ar.expectU64("trace cursor count", self.cursor_.size());
    for (std::size_t c = 0; c < self.cursor_.size(); ++c)
        ar.u64AtMost("trace cursor", self.cursor_[c],
                     self.trace_.epochs[self.epoch_][c].size());
    ar.u64(self.wraps_);
}

void
TraceWorkload::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
TraceWorkload::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

} // namespace morphcache
