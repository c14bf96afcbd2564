#include "common/serial.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include "common/rng.hh"
#include "io/vfs.hh"

namespace morphcache {

namespace {

/**
 * Transient-fault retry budget for the durability primitives: a
 * flaky NFS epoch (ESTALE, EAGAIN) gets a few bounded, jittered
 * chances before the fault is declared persistent and escapes as
 * the typed IoError that quarantines the cell.
 */
constexpr std::uint64_t kIoAttempts = 4;

/**
 * Scratch path for one write attempt. The pid suffix keeps
 * concurrent writer *processes* (campaign workers renewing leases,
 * rewriting results) off each other's scratch files, and the
 * sequence keeps concurrent *threads* — and successive retry
 * attempts — apart. The rename is what serializes them.
 */
std::string
scratchPath(const std::string &path)
{
    static std::atomic<std::uint64_t> seq{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

/**
 * Durably persist the rename that published `path`: fsync its
 * containing directory, without which a power loss can forget the
 * directory entry even though the file's blocks reached the disk.
 * Routed through the seam unconditionally — the MC_NO_FSYNC gate
 * suppresses the syscall inside RealVfs, so fault injection still
 * sees the site.
 */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const std::string name = dir.empty() ? "/" : dir;
    const int fd =
        vfs().openFile(name, O_RDONLY | O_DIRECTORY, 0);
    if (fd < 0)
        throwIo(VfsOp::Open, name, fd);
    const int sync_rc = vfs().fsyncFd(fd);
    vfs().closeFd(fd);
    if (sync_rc < 0)
        throwIo(VfsOp::Fsync, name, sync_rc);
}

/** One write-then-rename attempt; throws IoError on any failure. */
void
atomicWriteOnce(const std::string &path, const void *data,
                std::size_t size)
{
    const std::string tmp = scratchPath(path);
    const int fd = vfs().openFile(
        tmp, O_WRONLY | O_CREAT | O_TRUNC, 0666);
    if (fd < 0)
        throwIo(VfsOp::Open, tmp, fd);

    std::size_t landed = 0;
    long fail_rc = vfsWriteAll(fd, data, size, landed);
    VfsOp fail_op = VfsOp::Write;
    // fsync before rename: without it a crash after the rename can
    // publish an empty or torn file under the final name, which
    // torn-line tolerance downstream would then silently skip.
    if (fail_rc == 0) {
        const int sync_rc = vfs().fsyncFd(fd);
        if (sync_rc < 0) {
            fail_rc = sync_rc;
            fail_op = VfsOp::Fsync;
        }
    }
    const int close_rc = vfs().closeFd(fd);
    if (fail_rc == 0 && close_rc < 0) {
        // A swallowed close error is a swallowed write error on
        // NFS (the flush happens at close); it must not pass.
        fail_rc = close_rc;
        fail_op = VfsOp::Close;
    }
    if (fail_rc != 0) {
        vfs().unlinkPath(tmp); // scratch only; failure is benign
        throwIo(fail_op, tmp, fail_rc);
    }
    const int ren_rc = vfs().renamePath(tmp, path);
    if (ren_rc < 0) {
        vfs().unlinkPath(tmp);
        throwIo(VfsOp::Rename, path, ren_rc);
    }
    fsyncParentDir(path);
}

} // namespace

bool
fsyncEnabled()
{
    return vfsFsyncEnabled();
}

std::uint64_t
fsyncCount()
{
    return vfsFsyncCount();
}

void
retryTransientIo(const std::string &key,
                 const std::function<void()> &attempt)
{
    const std::uint64_t id = fnv1a64(key.data(), key.size());
    for (std::uint64_t n = 1;; ++n) {
        try {
            attempt();
            return;
        } catch (const IoError &err) {
            if (!err.transient() || n >= kIoAttempts)
                throw;
            vfs().sleepMs(retryDelayMs(id, 0, n));
        }
    }
}

void
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    // Each attempt uses a fresh scratch file: whatever a failed
    // attempt left behind is unlinked and never renamed, so the
    // destination is only ever complete-old or complete-new bytes.
    retryTransientIo(path, [&] { atomicWriteOnce(path, data, size); });
}

void
atomicWriteFileWithRotation(const std::string &path,
                            const void *data, std::size_t size)
{
    // Rotate the previous consistent file into the fallback slot.
    // ENOENT is the chain's first write and benign; any other
    // failure surfaces *before* the old chain is disturbed, so the
    // caller still has a complete checkpoint on disk.
    const std::string prev = path + ".prev";
    const int rot_rc = vfs().renamePath(path, prev);
    if (rot_rc < 0 && rot_rc != -ENOENT)
        throwIo(VfsOp::Rename, prev, rot_rc);
    atomicWriteFile(path, data, size);
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    return vfsReadWholeFile(path);
}

} // namespace morphcache
