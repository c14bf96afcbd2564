#include "io/faulty_vfs.hh"

#include <cerrno>

#include "common/rng.hh"

namespace morphcache {

FaultyVfs::FaultyVfs(Vfs &base, const FaultPlan &plan)
    : base_(base), plan_(plan), rngState_(plan.seed)
{
}

void
FaultyVfs::failNext(VfsOp op, int errno_code,
                    std::string path_substr)
{
    std::lock_guard<std::mutex> lock(mutex_);
    forced_.push_back(
        Forced{op, errno_code, std::move(path_substr)});
}

std::size_t
FaultyVfs::armedFaults() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return forced_.size();
}

std::uint64_t
FaultyVfs::opCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ops_;
}

std::uint64_t
FaultyVfs::faultCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return faults_;
}

std::uint64_t
FaultyVfs::sleepCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sleeps_;
}

bool
FaultyVfs::crashed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return crashed_;
}

int
FaultyVfs::drawErrno(VfsOp op)
{
    const bool transient =
        splitMix64(rngState_) % 1000 < plan_.transientPermille;
    const std::uint64_t pick = splitMix64(rngState_) % 3;
    if (transient) {
        static const int kTransient[3] = {EAGAIN, EBUSY, ESTALE};
        return kTransient[pick];
    }
    // Persistent pool; fsync failures report EIO specifically (the
    // classic lost-write signature) so callers' never-retry-fsync
    // policy is what gets exercised.
    if (op == VfsOp::Fsync)
        return EIO;
    static const int kPersistent[3] = {ENOSPC, EIO, EDQUOT};
    return kPersistent[pick];
}

long
FaultyVfs::gate(VfsOp op, const std::string &path, std::size_t n,
                std::size_t *short_len)
{
    ++ops_;
    if (crashed_)
        return -EIO;
    if (plan_.crashAtOp != 0 && ops_ == plan_.crashAtOp) {
        // The plug is pulled mid-operation. The caller applies the
        // op-specific torn effect (a prefix of a write lands; a
        // rename/link/unlink is simply not performed); from here
        // on every operation fails as if the kernel is gone.
        crashed_ = true;
        if (op == VfsOp::Write && short_len != nullptr && n >= 1)
            *short_len = splitMix64(rngState_) % n; // may be 0
        return -EIO;
    }
    for (auto it = forced_.begin(); it != forced_.end(); ++it) {
        if (it->op != op)
            continue;
        if (!it->pathSubstr.empty() &&
            path.find(it->pathSubstr) == std::string::npos) {
            continue;
        }
        const int code = it->errnoCode;
        forced_.erase(it);
        ++faults_;
        return -static_cast<long>(code);
    }
    if (faults_ >= plan_.maxFaults)
        return 0;
    if (splitMix64(rngState_) % 1000 >= plan_.faultPermille)
        return 0;
    ++faults_;
    if (op == VfsOp::Write && plan_.shortWrites && n >= 2 &&
        short_len != nullptr && splitMix64(rngState_) % 2 == 0) {
        // A short write is not an error: a strict prefix lands and
        // the caller's write loop must carry on. Landing 1..n-1
        // bytes also makes torn-middle states reachable when a
        // later draw errors out the rest.
        *short_len = 1 + splitMix64(rngState_) % (n - 1);
        return 0;
    }
    return -static_cast<long>(drawErrno(op));
}

int
FaultyVfs::openFile(const std::string &path, int flags,
                    unsigned int mode)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Open, path, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    const int fd = base_.openFile(path, flags, mode);
    if (fd >= 0)
        fdPath_[fd] = path;
    return fd;
}

long
FaultyVfs::readFd(int fd, void *buf, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fdPath_.find(fd);
    const long rc = gate(
        VfsOp::Read, it != fdPath_.end() ? it->second : "", 0,
        nullptr);
    if (rc < 0)
        return rc;
    return base_.readFd(fd, buf, n);
}

long
FaultyVfs::writeFd(int fd, const void *buf, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fdPath_.find(fd);
    std::size_t short_len = n;
    const long rc = gate(
        VfsOp::Write, it != fdPath_.end() ? it->second : "", n,
        &short_len);
    if (rc < 0) {
        // Crash-point writes land a torn prefix first: the bytes
        // that made it out before the plug was pulled.
        if (crashed_ && short_len < n && short_len > 0)
            base_.writeFd(fd, buf, short_len);
        return rc;
    }
    if (short_len < n)
        return base_.writeFd(fd, buf, short_len);
    return base_.writeFd(fd, buf, n);
}

int
FaultyVfs::fsyncFd(int fd)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fdPath_.find(fd);
    const long rc = gate(
        VfsOp::Fsync, it != fdPath_.end() ? it->second : "", 0,
        nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.fsyncFd(fd);
}

int
FaultyVfs::closeFd(int fd)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fdPath_.find(fd);
    const long rc = gate(
        VfsOp::Close, it != fdPath_.end() ? it->second : "", 0,
        nullptr);
    // Close the underlying fd even when injecting a failure (or
    // after the crash point): the harness still owns a real fd and
    // thousand-schedule sweeps must not exhaust the fd table.
    const int base_rc = base_.closeFd(fd);
    fdPath_.erase(fd);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_rc;
}

int
FaultyVfs::renamePath(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Rename, to, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.renamePath(from, to);
}

int
FaultyVfs::linkPath(const std::string &from, const std::string &to)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Link, to, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.linkPath(from, to);
}

int
FaultyVfs::unlinkPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Unlink, path, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.unlinkPath(path);
}

int
FaultyVfs::truncatePath(const std::string &path, std::uint64_t len)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Truncate, path, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.truncatePath(path, len);
}

int
FaultyVfs::mkdirPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const long rc = gate(VfsOp::Mkdir, path, 0, nullptr);
    if (rc < 0)
        return static_cast<int>(rc);
    return base_.mkdirPath(path);
}

bool
FaultyVfs::existsPath(const std::string &path)
{
    // Existence probes pass through un-faulted: stat(2) returns a
    // bool here, so there is no errno channel to inject into —
    // targeted tests use failNext on the open that follows.
    return base_.existsPath(path);
}

void
FaultyVfs::sleepMs(std::uint64_t)
{
    // Never sleep: retry backoff is policy under test, not time to
    // spend. The counter witnesses that the backoff path ran.
    std::lock_guard<std::mutex> lock(mutex_);
    ++sleeps_;
}

} // namespace morphcache
