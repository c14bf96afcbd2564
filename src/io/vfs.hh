/**
 * @file
 * The virtual filesystem seam.
 *
 * Every durable byte in the tree — checkpoint writes and their
 * `.prev` rotation, the append-only campaign manifest, the lease
 * link/rename protocol, the stats/trace sinks — routes through the
 * process-wide Vfs instance instead of calling POSIX directly. In
 * production that instance is RealVfs (the only translation unit in
 * src/ or tools/ allowed to name open/write/fsync/rename/link —
 * enforced by mc_analyze's `write-path` check); under test it is
 * FaultyVfs
 * (faulty_vfs.hh), which injects ENOSPC/EIO/short-write/fsync-fail/
 * ESTALE faults and crash points from a splitMix64-seeded schedule,
 * so the whole failure space of a shared filesystem is enumerable
 * the way the model checker enumerates reconfiguration decisions.
 *
 * The interface is deliberately errno-shaped: operations return the
 * syscall result (fd / byte count / 0) or a *negative errno*, never
 * throw. Policy — what is transient, what retries, what becomes a
 * typed IoError — lives in the callers (serial.cc, manifest.cc,
 * lease.cc, tracing.cc) and in the helpers below, so the fault
 * injector sits below every policy decision it needs to exercise.
 *
 * sleepMs() is part of the interface so retry backoff is virtual
 * too: FaultyVfs turns the seeded-jitter delays into no-ops, letting
 * mc_iofuzz sweep thousands of schedules in seconds.
 */

#ifndef MORPHCACHE_IO_VFS_HH
#define MORPHCACHE_IO_VFS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"

namespace morphcache {

/** Operation tags for fault schedules and error messages. */
enum class VfsOp : std::uint8_t
{
    Open,
    Read,
    Write,
    Fsync,
    Close,
    Rename,
    Link,
    Unlink,
    Truncate,
    Mkdir,
    Sleep,
};

/** Human-readable tag name ("open", "fsync", ...). */
const char *vfsOpName(VfsOp op);

/**
 * The filesystem interface. Return conventions follow the wrapped
 * syscalls: fds and byte counts are non-negative, success is >= 0,
 * and every failure is `-errno` — no exceptions at this layer.
 */
class Vfs
{
  public:
    virtual ~Vfs() = default;

    /** open(2). Returns an fd or -errno. */
    virtual int openFile(const std::string &path, int flags,
                         unsigned int mode) = 0;

    /** read(2). Returns bytes read (0 = EOF) or -errno. */
    virtual long readFd(int fd, void *buf, std::size_t n) = 0;

    /** write(2). Returns bytes written (may be short) or -errno. */
    virtual long writeFd(int fd, const void *buf,
                         std::size_t n) = 0;

    /**
     * fsync(2), subject to the MC_NO_FSYNC gate (a gated no-op
     * still reports success). Returns 0 or -errno.
     */
    virtual int fsyncFd(int fd) = 0;

    /** close(2). Returns 0 or -errno. */
    virtual int closeFd(int fd) = 0;

    /** rename(2). Returns 0 or -errno. */
    virtual int renamePath(const std::string &from,
                           const std::string &to) = 0;

    /** link(2) — the lease protocol's atomic-exclusive primitive.
     * Returns 0 or -errno (-EEXIST = lost the claim race). */
    virtual int linkPath(const std::string &from,
                         const std::string &to) = 0;

    /** unlink(2). Returns 0 or -errno. */
    virtual int unlinkPath(const std::string &path) = 0;

    /** truncate(2) (trace-resume rewind). Returns 0 or -errno. */
    virtual int truncatePath(const std::string &path,
                             std::uint64_t len) = 0;

    /** mkdir(2). Returns 0 or -errno (-EEXIST is benign). */
    virtual int mkdirPath(const std::string &path) = 0;

    /** stat(2) existence probe. */
    virtual bool existsPath(const std::string &path) = 0;

    /** Retry backoff sleep; injectable so schedules run fast. */
    virtual void sleepMs(std::uint64_t ms) = 0;
};

/** The process-wide instance (RealVfs unless swapped). */
Vfs &vfs();

/**
 * Swap the process-wide instance; returns the previous one
 * (nullptr means "the built-in RealVfs"). Swaps happen only in
 * single-threaded test/harness setup — there is no handoff
 * protocol for swapping mid-campaign.
 */
Vfs *setVfs(Vfs *replacement);

/** RAII swap used by tests and mc_iofuzz. */
class ScopedVfs
{
  public:
    explicit ScopedVfs(Vfs *replacement)
        : previous_(setVfs(replacement))
    {
    }

    ~ScopedVfs() { setVfs(previous_); }

    ScopedVfs(const ScopedVfs &) = delete;
    ScopedVfs &operator=(const ScopedVfs &) = delete;

  private:
    Vfs *previous_;
};

/**
 * Whether fsync-backed durability is active (true unless the
 * MC_NO_FSYNC environment variable was set at first use). Lives
 * here — not serial.cc — because the gate must sit *inside*
 * RealVfs::fsyncFd: FaultyVfs then intercepts every fsync site
 * regardless of the gate, and the gate only suppresses the real
 * syscall underneath.
 */
bool vfsFsyncEnabled();

/** Process-wide count of real fsyncs issued (files + dirs). */
std::uint64_t vfsFsyncCount();

/**
 * Transience classification, decided once for every caller: EINTR,
 * EAGAIN, EBUSY, ESTALE (NFS handle churn), ETIMEDOUT, and
 * fd-table pressure (ENFILE/EMFILE) are worth retrying; ENOSPC,
 * EDQUOT, EIO, EROFS, EACCES, ENOENT are persistent — retrying
 * cannot help, the cell quarantines instead.
 */
bool errnoIsTransient(int errno_code);

/** Throw the typed IoError for `op` on `path` failing with
 * `neg_errno` (a -errno as returned by the Vfs methods). */
[[noreturn]] void throwIo(VfsOp op, const std::string &path,
                          long neg_errno);

/**
 * Write an entire buffer to an open fd, riding out short writes
 * and EINTR. Returns 0 on success or -errno; `landed` reports how
 * many of the `n` input bytes reached the fd either way — callers
 * appending to shared logs use it to tell "clean failure, safe to
 * retry the record" (landed == 0) from "torn tail, retrying would
 * interleave" (landed > 0).
 */
long vfsWriteAll(int fd, const void *data, std::size_t n,
                 std::size_t &landed);

/**
 * Whole-file overwrite through the seam: open(O_TRUNC), write,
 * optionally fsync, close. Throws IoError on failure. This is the
 * plain (non-atomic) writer for observability outputs that are
 * rewritten whole on resume; durable state uses atomicWriteFile
 * (serial.hh), which adds the tmp+rename+dir-fsync dance.
 */
void vfsWriteWholeFile(const std::string &path, const void *data,
                       std::size_t n, bool want_fsync);

/** Whole-file read through the seam. Throws IoError. */
std::vector<std::uint8_t> vfsReadWholeFile(const std::string &path);

} // namespace morphcache

#endif // MORPHCACHE_IO_VFS_HH
