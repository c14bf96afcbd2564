/**
 * @file
 * Seeded filesystem fault injection.
 *
 * FaultyVfs wraps another Vfs (normally RealVfs) and perturbs its
 * operation stream from a splitMix64-seeded schedule: ENOSPC/EIO
 * style persistent errors, EAGAIN/EBUSY/ESTALE style transient
 * ones, short writes that land a strict prefix of the buffer, fsync
 * and rename/link failures — each drawn per operation, so every
 * I/O call site in the tree is a candidate fault point. The same
 * seed always yields the same schedule: a failing mc_iofuzz run
 * prints its seed and replays exactly.
 *
 * Crash-point mode generalizes the SIGKILL chaos leg to
 * torn-at-any-syscall: operation number `crashAtOp` applies a torn
 * effect (a prefix of a write; a rename/link/unlink simply not
 * performed) and every operation after it fails with EIO — the
 * moment the plug was pulled. No exception is thrown by the vfs
 * itself; the callers' normal typed-error paths fire, which is the
 * point: recovery must work from what is on disk, not from luck in
 * unwinding order.
 *
 * A failNext() queue supplements the random schedule for targeted
 * regression tests ("the next open of *.lease fails ENOENT"), and
 * sleepMs() never sleeps, so thousand-schedule sweeps are fast.
 */

#ifndef MORPHCACHE_IO_FAULTY_VFS_HH
#define MORPHCACHE_IO_FAULTY_VFS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "io/vfs.hh"

namespace morphcache {

/** One seeded fault schedule. */
struct FaultPlan
{
    /** splitMix64 stream seed; same seed, same schedule. */
    std::uint64_t seed = 1;
    /** Per-operation fault probability, in permille. */
    std::uint32_t faultPermille = 50;
    /** Of the faults, how many draw a transient errno (permille). */
    std::uint32_t transientPermille = 500;
    /** 1-based operation index that "pulls the plug"; 0 = off. */
    std::uint64_t crashAtOp = 0;
    /** Whether write faults may be short writes instead of errors. */
    bool shortWrites = true;
    /** Cap on injected random faults (keeps bounded-retry loops
     * from being exhausted by construction in soak modes). */
    std::uint64_t maxFaults = ~0ULL;
};

class FaultyVfs final : public Vfs
{
  public:
    FaultyVfs(Vfs &base, const FaultPlan &plan);

    int openFile(const std::string &path, int flags,
                 unsigned int mode) override;
    long readFd(int fd, void *buf, std::size_t n) override;
    long writeFd(int fd, const void *buf, std::size_t n) override;
    int fsyncFd(int fd) override;
    int closeFd(int fd) override;
    int renamePath(const std::string &from,
                   const std::string &to) override;
    int linkPath(const std::string &from,
                 const std::string &to) override;
    int unlinkPath(const std::string &path) override;
    int truncatePath(const std::string &path,
                     std::uint64_t len) override;
    int mkdirPath(const std::string &path) override;
    bool existsPath(const std::string &path) override;
    void sleepMs(std::uint64_t ms) override;

    /**
     * Queue a forced fault: the next operation of kind `op` whose
     * path contains `path_substr` (empty = any) fails with
     * `errno_code`, ahead of and independent from the random
     * schedule. FIFO; each entry fires once.
     */
    void failNext(VfsOp op, int errno_code,
                  std::string path_substr = "");

    /** Forced faults queued and not yet consumed. */
    std::size_t armedFaults() const;

    /** Telemetry. */
    std::uint64_t opCount() const;
    std::uint64_t faultCount() const;
    std::uint64_t sleepCount() const;
    bool crashed() const;

  private:
    struct Forced
    {
        VfsOp op;
        int errnoCode;
        std::string pathSubstr;
    };

    /**
     * Per-op gate, called with the lock held: counts the op,
     * trips the crash point, consumes a matching forced fault, or
     * draws from the random schedule. Returns 0 to proceed or the
     * -errno to inject; sets `short_len` (< `n`, only for writes
     * with n >= 2) when the injection is a short write.
     */
    long gate(VfsOp op, const std::string &path, std::size_t n,
              std::size_t *short_len);

    int drawErrno(VfsOp op);

    Vfs &base_;
    FaultPlan plan_;
    mutable std::mutex mutex_;
    std::uint64_t rngState_;
    std::uint64_t ops_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t sleeps_ = 0;
    bool crashed_ = false;
    std::deque<Forced> forced_;
    std::map<int, std::string> fdPath_;
};

} // namespace morphcache

#endif // MORPHCACHE_IO_FAULTY_VFS_HH
