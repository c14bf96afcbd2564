#include "io/vfs.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace morphcache {

const char *
vfsOpName(VfsOp op)
{
    switch (op) {
      case VfsOp::Open: return "open";
      case VfsOp::Read: return "read";
      case VfsOp::Write: return "write";
      case VfsOp::Fsync: return "fsync";
      case VfsOp::Close: return "close";
      case VfsOp::Rename: return "rename";
      case VfsOp::Link: return "link";
      case VfsOp::Unlink: return "unlink";
      case VfsOp::Truncate: return "truncate";
      case VfsOp::Mkdir: return "mkdir";
      case VfsOp::Sleep: return "sleep";
    }
    return "unknown";
}

namespace {

/**
 * fsync gate: durability is on unless MC_NO_FSYNC is set in the
 * environment (the test-suite escape hatch — thousands of tiny
 * checkpoint writes do not need to survive a power cut). Read once;
 * the gate cannot change mid-process.
 */
bool
fsyncConfigured()
{
    const char *env = std::getenv("MC_NO_FSYNC");
    return env == nullptr || *env == '\0' || *env == '0';
}

std::atomic<std::uint64_t> &
fsyncCounter()
{
    static std::atomic<std::uint64_t> count{0};
    return count;
}

/**
 * The production filesystem: thin per-op syscall wrappers, the one
 * translation unit that names the raw primitives (mc_analyze
 * `write-path`). Every method normalizes failure to -errno so callers
 * never read the thread-local errno across a virtual boundary.
 */
class RealVfs final : public Vfs
{
  public:
    int
    openFile(const std::string &path, int flags,
             unsigned int mode) override
    {
        const int fd = ::open(path.c_str(), flags,
                              static_cast<mode_t>(mode));
        return fd >= 0 ? fd : -errno;
    }

    long
    readFd(int fd, void *buf, std::size_t n) override
    {
        const ssize_t got = ::read(fd, buf, n);
        return got >= 0 ? static_cast<long>(got) : -errno;
    }

    long
    writeFd(int fd, const void *buf, std::size_t n) override
    {
        const ssize_t put = ::write(fd, buf, n);
        return put >= 0 ? static_cast<long>(put) : -errno;
    }

    int
    fsyncFd(int fd) override
    {
        // The MC_NO_FSYNC gate lives *below* the seam so a faulty
        // wrapper above still sees (and can fail) every fsync site
        // while the real syscall — and the witness counter tests
        // assert on — is suppressed.
        if (!vfsFsyncEnabled())
            return 0;
        if (::fsync(fd) != 0)
            return -errno;
        fsyncCounter().fetch_add(1, std::memory_order_relaxed);
        return 0;
    }

    int
    closeFd(int fd) override
    {
        return ::close(fd) == 0 ? 0 : -errno;
    }

    int
    renamePath(const std::string &from,
               const std::string &to) override
    {
        return ::rename(from.c_str(), to.c_str()) == 0 ? 0 : -errno;
    }

    int
    linkPath(const std::string &from, const std::string &to) override
    {
        return ::link(from.c_str(), to.c_str()) == 0 ? 0 : -errno;
    }

    int
    unlinkPath(const std::string &path) override
    {
        return ::unlink(path.c_str()) == 0 ? 0 : -errno;
    }

    int
    truncatePath(const std::string &path,
                 std::uint64_t len) override
    {
        return ::truncate(path.c_str(),
                          static_cast<off_t>(len)) == 0
                   ? 0
                   : -errno;
    }

    int
    mkdirPath(const std::string &path) override
    {
        return ::mkdir(path.c_str(), 0777) == 0 ? 0 : -errno;
    }

    bool
    existsPath(const std::string &path) override
    {
        struct stat st;
        return ::stat(path.c_str(), &st) == 0;
    }

    void
    sleepMs(std::uint64_t ms) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
};

RealVfs &
realVfs()
{
    static RealVfs instance;
    return instance;
}

/**
 * The active instance. A plain atomic pointer: swaps happen only in
 * single-threaded test/harness setup (ScopedVfs), reads on every
 * I/O call. nullptr encodes "the built-in RealVfs" so the default
 * needs no dynamic initialization order.
 */
std::atomic<Vfs *> &
activeVfs()
{
    static std::atomic<Vfs *> active{nullptr};
    return active;
}

} // namespace

Vfs &
vfs()
{
    Vfs *v = activeVfs().load(std::memory_order_acquire);
    return v != nullptr ? *v : realVfs();
}

Vfs *
setVfs(Vfs *replacement)
{
    return activeVfs().exchange(replacement,
                                std::memory_order_acq_rel);
}

bool
vfsFsyncEnabled()
{
    static const bool enabled = fsyncConfigured();
    return enabled;
}

std::uint64_t
vfsFsyncCount()
{
    return fsyncCounter().load(std::memory_order_relaxed);
}

bool
errnoIsTransient(int errno_code)
{
    switch (errno_code) {
      case EINTR:
      case EAGAIN:
      case EBUSY:
      case ESTALE:
      case ETIMEDOUT:
      case ENFILE:
      case EMFILE:
        return true;
      default:
        return false;
    }
}

void
throwIo(VfsOp op, const std::string &path, long neg_errno)
{
    const int code =
        neg_errno < 0 ? static_cast<int>(-neg_errno) : 0;
    const bool transient = errnoIsTransient(code);
    throw IoError("'" + path + "': " + vfsOpName(op) +
                      " failed: " + std::strerror(code) +
                      (transient ? " (transient)" : ""),
                  code, transient);
}

long
vfsWriteAll(int fd, const void *data, std::size_t n,
            std::size_t &landed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    landed = 0;
    while (landed < n) {
        const long put =
            vfs().writeFd(fd, p + landed, n - landed);
        if (put == -EINTR)
            continue;
        if (put < 0)
            return put;
        if (put == 0)
            return -EIO; // write(2) returning 0 is a stuck fd
        landed += static_cast<std::size_t>(put);
    }
    return 0;
}

void
vfsWriteWholeFile(const std::string &path, const void *data,
                  std::size_t n, bool want_fsync)
{
    const int fd =
        vfs().openFile(path, O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0)
        throwIo(VfsOp::Open, path, fd);
    std::size_t landed = 0;
    const long write_rc = vfsWriteAll(fd, data, n, landed);
    if (write_rc < 0) {
        vfs().closeFd(fd);
        throwIo(VfsOp::Write, path, write_rc);
    }
    if (want_fsync) {
        const int sync_rc = vfs().fsyncFd(fd);
        if (sync_rc < 0) {
            vfs().closeFd(fd);
            throwIo(VfsOp::Fsync, path, sync_rc);
        }
    }
    const int close_rc = vfs().closeFd(fd);
    if (close_rc < 0)
        throwIo(VfsOp::Close, path, close_rc);
}

std::vector<std::uint8_t>
vfsReadWholeFile(const std::string &path)
{
    const int fd = vfs().openFile(path, O_RDONLY, 0);
    if (fd < 0)
        throwIo(VfsOp::Open, path, fd);
    std::vector<std::uint8_t> out;
    std::uint8_t chunk[65536];
    while (true) {
        const long got = vfs().readFd(fd, chunk, sizeof(chunk));
        if (got == -EINTR)
            continue;
        if (got < 0) {
            vfs().closeFd(fd);
            throwIo(VfsOp::Read, path, got);
        }
        if (got == 0)
            break;
        out.insert(out.end(), chunk, chunk + got);
    }
    vfs().closeFd(fd);
    return out;
}

} // namespace morphcache
