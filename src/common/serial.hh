/**
 * @file
 * Checkpoint serialization primitives.
 *
 * CkptWriter/CkptReader implement the byte-level encoding shared by
 * every component's checkpoint walk (see CkptWriter): little-endian
 * fixed width integers, doubles as their IEEE-754 bit pattern
 * (bit-exact round-trips, no text formatting), strings and vectors
 * as a u64 count followed by elements. The writer accumulates into
 * memory so the checkpoint file can be checksummed and written
 * atomically in one shot; the reader is bounds-checked on every access and throws
 * a typed CkptError carrying the file name and byte offset (same
 * pattern as TraceReader in src/workload/trace.cc).
 *
 * atomicWriteFile() is the sanctioned durability primitive: write to
 * `<path>.tmp.<pid>.<seq>`, fsync, rename over the destination, then
 * fsync the containing directory — so a crash (or power loss)
 * mid-write leaves either the old file or the new one, never a torn
 * hybrid and never an empty rename ghost. Every byte moves through
 * the virtual filesystem seam (src/io/vfs.hh), so fault injection
 * reaches each syscall; transient faults (EINTR/EAGAIN/ESTALE/...)
 * are retried a bounded number of times with seeded-jitter backoff,
 * persistent ones (ENOSPC/EIO/...) surface as a typed IoError.
 * mc_analyze's `write-path` check keeps src/ and tools/ file writes
 * on the Vfs seam it is built on. Setting MC_NO_FSYNC in the
 * environment skips the fsyncs (test-suite escape hatch).
 */

#ifndef MORPHCACHE_COMMON_SERIAL_HH
#define MORPHCACHE_COMMON_SERIAL_HH

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace morphcache {

/** FNV-1a 64-bit over a byte range (checkpoint checksums). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Buffered little-endian checkpoint encoder.
 *
 * CkptWriter and CkptReader offer the same field verbs, each taking
 * the field by reference, so a class writes its checkpoint format
 * once: one private walk that saveState() and loadState() both call,
 *
 *     template <class Ar, class Self>
 *     static void
 *     checkpointFields(Ar &ar, Self &self)
 *     {
 *         ar.fixedVec("bucket count", self.counts_);
 *         ar.u64(self.total_);
 *         ar.nested(self.rng_);
 *     }
 *
 * with Self a const object when saving. u32/u64 name the on-disk
 * width whatever the field's type. Each reader verb runs its checks
 * before it assigns the field, and a fixed-length vector keeps its
 * size, so a failed load leaves every expected count intact for the
 * next one (restoreCheckpointChain reloads `.prev` into the same
 * objects). Load-only work, such as rebuilding derived tables, stays
 * in loadState() around the walk or under `if constexpr
 * (Ar::loading)`.
 */
class CkptWriter
{
  public:
    static constexpr bool loading = false;

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** IEEE-754 bit pattern; round-trips exactly, including NaNs. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t size)
    {
        // Resize, then copy: the range insert, inlined at a link-time
        // optimized call site, trips GCC 12's -Wstringop-overflow.
        const std::size_t at = buf_.size();
        buf_.resize(at + size);
        if (size > 0)
            std::memcpy(buf_.data() + at, data, size);
    }

    /** Counted vectors: a u64 length, then the elements. */
    void u64Vec(const std::vector<std::uint64_t> &v) { vec(v); }
    void u32Vec(const std::vector<std::uint32_t> &v) { vec(v); }
    void f64Vec(const std::vector<double> &v) { vec(v); }

    /**
     * A counted vector whose length the reader requires to be
     * v.size() (or `n`) on load.
     */
    template <class T>
    void
    fixedVec(const char *, const std::vector<T> &v, std::size_t = 0)
    {
        vec(v);
    }

    /** A counted vector the reader caps at `max_len` elements. */
    template <class T>
    void
    vecAtMost(const char *, const std::vector<T> &v, std::uint64_t)
    {
        vec(v);
    }

    /** A u64 the reader caps at `max`. */
    void u64AtMost(const char *, std::uint64_t v, std::uint64_t) { u64(v); }

    /** A structural constant the reader must find again. */
    void expectU64(const char *, std::uint64_t v) { u64(v); }
    void expectB(const char *, bool v) { b(v); }

    /** A member object's own checkpoint. */
    template <class T, class... Args>
    void
    nested(const T &object, const Args &...args)
    {
        object.saveState(*this, args...);
    }

    /**
     * Open a tagged section: 4-byte tag + u64 length placeholder.
     * Returns a token for endSection(), which patches the length.
     * Sections let the inspector (tools/mc_ckpt.cc) report
     * per-component sizes and let readers skip unknown sections.
     */
    std::size_t
    beginSection(const char tag[4])
    {
        bytes(tag, 4);
        const std::size_t at = buf_.size();
        u64(0);
        return at;
    }

    void
    endSection(std::size_t token)
    {
        const std::uint64_t len = buf_.size() - (token + 8);
        for (int i = 0; i < 8; ++i)
            buf_[token + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(len >> (8 * i));
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }

  private:
    template <class T>
    void
    vec(const std::vector<T> &v)
    {
        u64(v.size());
        for (const T &x : v)
            put(x);
    }

    void put(std::uint64_t x) { u64(x); }
    void put(std::uint32_t x) { u32(x); }
    void put(double x) { f64(x); }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked little-endian checkpoint decoder. */
class CkptReader
{
  public:
    static constexpr bool loading = true;

    /**
     * @param name File name (or other provenance) for error
     *        messages; the reader does not own or open any file.
     */
    CkptReader(std::string name, const std::uint8_t *data,
               std::size_t size)
        : name_(std::move(name)), data_(data), size_(size)
    {
    }

    CkptReader(std::string name, const std::vector<std::uint8_t> &buf)
        : CkptReader(std::move(name), buf.data(), buf.size())
    {
    }

    /** Typed failure carrying file + current byte offset. */
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CkptError("'" + name_ + "' at byte " +
                        std::to_string(offset_) + ": " + what);
    }

    std::uint8_t
    u8()
    {
        need(1, "u8");
        return data_[offset_++];
    }

    std::uint32_t
    u32()
    {
        need(4, "u32");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[offset_ + i])
                 << (8 * i);
        offset_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8, "u64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[offset_ + i])
                 << (8 * i);
        offset_ += 8;
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fail("bool byte is " + std::to_string(v) +
                 ", expected 0 or 1");
        return v != 0;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n, "string body");
        std::string s(reinterpret_cast<const char *>(data_ + offset_),
                      static_cast<std::size_t>(n));
        offset_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Field verbs: the CkptWriter ones, filling the field. */
    void u8(std::uint8_t &v) { v = u8(); }

    template <std::unsigned_integral T>
    void
    u32(T &v)
    {
        v = static_cast<T>(u32());
    }

    template <std::unsigned_integral T>
    void
    u64(T &v)
    {
        v = static_cast<T>(u64());
    }

    void f64(double &v) { v = f64(); }
    void b(bool &v) { v = b(); }
    void str(std::string &s) { s = str(); }

    void u64Vec(std::vector<std::uint64_t> &v) { vec(v, u64()); }
    void u32Vec(std::vector<std::uint32_t> &v) { vec(v, u64()); }
    void f64Vec(std::vector<double> &v) { vec(v, u64()); }

    template <class T>
    void
    fixedVec(const char *what, std::vector<T> &v)
    {
        fixedVec(what, v, v.size());
    }

    template <class T>
    void
    fixedVec(const char *what, std::vector<T> &v, std::size_t n)
    {
        expectU64(what, n);
        vec(v, n);
    }

    template <class T>
    void
    vecAtMost(const char *what, std::vector<T> &v, std::uint64_t max_len)
    {
        vec(v, atMost(what, max_len));
    }

    template <std::unsigned_integral T>
    void
    u64AtMost(const char *what, T &v, std::uint64_t max)
    {
        v = static_cast<T>(atMost(what, max));
    }

    /**
     * Read a u64 and fail with expected-vs-found context unless it
     * matches. Used for structural constants (element counts, kind
     * tags) whose mismatch means the checkpoint was taken under a
     * different configuration.
     */
    void
    expectU64(const char *what, std::uint64_t expected)
    {
        const std::uint64_t found = u64();
        if (found != expected)
            fail(std::string(what) + " mismatch: expected " +
                 std::to_string(expected) + ", found " +
                 std::to_string(found));
    }

    void
    expectB(const char *what, bool expected)
    {
        if (b() != expected)
            fail(std::string(what) + " mismatch: expected " +
                 (expected ? "true" : "false"));
    }

    template <class T, class... Args>
    void
    nested(T &object, const Args &...args)
    {
        object.loadState(*this, args...);
    }

    /** Read n raw bytes into out. */
    void
    raw(void *out, std::size_t n)
    {
        need(n, "raw bytes");
        auto *p = static_cast<std::uint8_t *>(out);
        for (std::size_t i = 0; i < n; ++i)
            p[i] = data_[offset_ + i];
        offset_ += n;
    }

    std::size_t offset() const { return offset_; }
    std::size_t remaining() const { return size_ - offset_; }
    const std::string &name() const { return name_; }

    /** Advance past n bytes (skipping an unneeded section body). */
    void
    skip(std::size_t n)
    {
        need(n, "skipped section");
        offset_ += n;
    }

  private:
    void
    need(std::uint64_t n, const char *what) const
    {
        if (n > size_ - offset_)
            fail(std::string("truncated reading ") + what);
    }

    std::uint64_t
    atMost(const char *what, std::uint64_t max)
    {
        const std::uint64_t v = u64();
        if (v > max)
            fail(std::string(what) + " " + std::to_string(v) +
                 " exceeds " + std::to_string(max));
        return v;
    }

    /**
     * Fill `v` with the `n` elements that follow, after checking
     * they fit in the remaining bytes; reuses v's storage.
     */
    template <class T>
    void
    vec(std::vector<T> &v, std::uint64_t n)
    {
        if (n > remaining() / sizeof(T))
            fail("vector length " + std::to_string(n) +
                 " exceeds remaining bytes");
        v.resize(static_cast<std::size_t>(n));
        for (T &x : v)
            get(x);
    }

    void get(std::uint64_t &x) { x = u64(); }
    void get(std::uint32_t &x) { x = u32(); }
    void get(double &x) { x = f64(); }

    std::string name_;
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t offset_ = 0;
};

/**
 * Run `attempt`, retrying it while it throws a transient IoError
 * (EINTR/EAGAIN/ESTALE/...): a bounded number of attempts with
 * seeded-jitter backoff (retryDelayMs, keyed by `key` so concurrent
 * callers jitter apart). A persistent IoError, or the last transient
 * one, propagates. `attempt` must be safe to repeat.
 */
void retryTransientIo(const std::string &key,
                      const std::function<void()> &attempt);

/**
 * Durably write `size` bytes to `path` via write-then-rename: the
 * data lands in `<path>.tmp.<pid>.<seq>` first (pid-unique, so
 * concurrent worker processes never share a scratch file) and is
 * renamed over the destination only after a successful fsync; the
 * containing directory is fsynced after the rename so the entry
 * itself survives power loss. Readers never see a torn file.
 * Transient filesystem faults are retried (fresh scratch file per
 * attempt, bounded seeded-jitter backoff via retryDelayMs);
 * anything else throws a typed IoError (a CkptError subclass, so
 * existing handlers keep working).
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t size);

/**
 * atomicWriteFile plus the checkpoint-chain rotation: the current
 * `path` (if any) is first renamed to `<path>.prev`, then the new
 * bytes land atomically under `path`. A missing current file is
 * benign (first write of the chain); a failed rotation is a typed
 * IoError *before* any byte of the old chain is disturbed, and a
 * failed write after a successful rotation still leaves `.prev`
 * for restoreCheckpointChain to fall back on.
 */
void atomicWriteFileWithRotation(const std::string &path,
                                 const void *data,
                                 std::size_t size);

/**
 * Whether fsync-backed durability is active (true unless the
 * MC_NO_FSYNC environment variable was set at first use).
 */
bool fsyncEnabled();

/**
 * Process-wide count of fsync calls issued by the durability
 * primitives (files + directories). Exists so tests can prove the
 * fsync path actually runs — and that MC_NO_FSYNC suppresses it.
 */
std::uint64_t fsyncCount();

inline void
atomicWriteFile(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    atomicWriteFile(path, bytes.data(), bytes.size());
}

inline void
atomicWriteFileWithRotation(const std::string &path,
                            const std::vector<std::uint8_t> &bytes)
{
    atomicWriteFileWithRotation(path, bytes.data(), bytes.size());
}

/**
 * Read a whole file into memory. Throws CkptError (with the path)
 * when the file cannot be opened or read.
 */
std::vector<std::uint8_t> readFileBytes(const std::string &path);

} // namespace morphcache

#endif // MORPHCACHE_COMMON_SERIAL_HH
