#include "runner/lease.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/error.hh"
#include "common/serial.hh"
#include "common/textfmt.hh"
#include "io/vfs.hh"
#include "runner/manifest.hh"

namespace morphcache {

double
leaseNow()
{
    // Deadlines are compared by *other processes*, so this must be
    // the shared wall clock, not the per-process steady clock. It
    // gates only whether a claim is stale — never anything
    // simulated (a `wall-clock` entry in mc_analyze's allowlist).
    const auto now = std::chrono::system_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

std::string
defaultWorkerId()
{
    char host[256] = "unknown-host";
    if (::gethostname(host, sizeof(host) - 1) != 0)
        std::snprintf(host, sizeof(host), "unknown-host");
    host[sizeof(host) - 1] = '\0';
    return std::string(host) + ":" + std::to_string(::getpid());
}

std::string
serializeLease(const LeaseInfo &lease)
{
    char deadline[48];
    std::snprintf(deadline, sizeof(deadline), "%.6f",
                  lease.deadline);
    return "{\"type\":\"lease\",\"index\":" +
           std::to_string(lease.index) + ",\"worker\":\"" +
           jsonEscape(lease.worker) + "\",\"pid\":" +
           std::to_string(lease.pid) + ",\"host\":\"" +
           jsonEscape(lease.host) + "\",\"generation\":" +
           std::to_string(lease.generation) + ",\"deadline\":" +
           deadline + ",\"attempts\":" +
           std::to_string(lease.attempts) + "}\n";
}

bool
parseLease(const std::string &text, LeaseInfo &out)
{
    std::string type;
    if (!jsonFieldStr(text, "type", type) || type != "lease")
        return false;
    return jsonFieldU64(text, "index", out.index) &&
           jsonFieldStr(text, "worker", out.worker) &&
           jsonFieldU64(text, "pid", out.pid) &&
           jsonFieldStr(text, "host", out.host) &&
           jsonFieldU64(text, "generation", out.generation) &&
           jsonFieldF64(text, "deadline", out.deadline) &&
           jsonFieldU64(text, "attempts", out.attempts);
}

LeaseRead
readLease(const std::string &path, LeaseInfo &out)
{
    const int fd = vfs().openFile(path, O_RDONLY, 0);
    if (fd < 0) {
        // errno-precise: only "the file is genuinely gone" maps to
        // Missing — ENOENT (deleted between a claim scan or reap
        // pass and this open; the benign readdir/open race) and
        // ESTALE (NFS forgot the handle for the same reason). Any
        // other open failure means a lease file exists but cannot
        // be read right now; reporting that as Missing would send
        // the claimer down the fresh-claim link(2) path against a
        // live lease, so it is Corrupt — claimed via the
        // generation-bumping reclaim, which fencing makes safe.
        if (fd == -ENOENT || fd == -ESTALE)
            return LeaseRead::Missing;
        return LeaseRead::Corrupt;
    }
    std::string text;
    char chunk[1024];
    bool read_error = false;
    while (true) {
        const long got = vfs().readFd(fd, chunk, sizeof(chunk));
        if (got == -EINTR)
            continue;
        if (got < 0) {
            read_error = true;
            break;
        }
        if (got == 0)
            break;
        text.append(chunk, static_cast<std::size_t>(got));
    }
    vfs().closeFd(fd);
    if (read_error || !parseLease(text, out))
        return LeaseRead::Corrupt;
    return LeaseRead::Valid;
}

namespace {

/**
 * Scratch path for this worker's lease writes: unique per (cell,
 * pid, call) so concurrent claimers — other processes *and* other
 * claim threads in this process — never share a temp file.
 */
std::string
leaseScratchPath(const std::string &lease_path)
{
    static std::atomic<std::uint64_t> seq{0};
    return lease_path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

/**
 * Write lease content to the scratch file (flushed + fsynced so a
 * power loss cannot publish a torn lease after the link/rename).
 */
void
writeLeaseScratch(const std::string &scratch,
                  const std::string &doc)
{
    // The lease API's contract is LeaseError (the executor catches
    // it to fall back to the next cell), so the seam's typed IoError
    // is wrapped rather than propagated.
    try {
        vfsWriteWholeFile(scratch, doc.data(), doc.size(),
                          /*want_fsync=*/true);
    } catch (const IoError &err) {
        vfs().unlinkPath(scratch); // best effort; scratch only
        throw LeaseError(std::string("lease scratch write failed: ") +
                         err.what());
    }
}

/** Rename the scratch over the lease and read back who won. */
bool
installAndVerify(const std::string &scratch,
                 const std::string &path, const LeaseInfo &mine)
{
    const int ren_rc = vfs().renamePath(scratch, path);
    if (ren_rc < 0) {
        vfs().unlinkPath(scratch);
        throw LeaseError("'" + scratch + "': cannot rename to '" +
                         path + "': " + std::strerror(-ren_rc));
    }
    // Read-back verification: concurrent reclaimers all rename
    // over the same path; the file holds the last writer, and only
    // the worker that finds its own (worker, generation) proceeds.
    LeaseInfo back;
    return readLease(path, back) == LeaseRead::Valid &&
           back.worker == mine.worker &&
           back.generation == mine.generation;
}

} // namespace

LeaseClaim
tryClaimCell(const std::string &dir, std::size_t index,
             const std::string &worker_id, double ttl_sec,
             LeaseInfo &mine)
{
    const std::string path = cellLeasePath(dir, index);

    mine = LeaseInfo{};
    mine.index = index;
    mine.worker = worker_id;
    mine.pid = static_cast<std::uint64_t>(::getpid());
    {
        char host[256] = "unknown-host";
        if (::gethostname(host, sizeof(host) - 1) != 0)
            std::snprintf(host, sizeof(host), "unknown-host");
        host[sizeof(host) - 1] = '\0';
        mine.host = host;
    }
    mine.deadline = leaseNow() + ttl_sec;

    LeaseInfo current;
    const LeaseRead state = readLease(path, current);
    if (state == LeaseRead::Missing) {
        // Fresh claim: link(2) is the atomic-exclusive primitive —
        // it fails with EEXIST when anyone else created the lease
        // first, even over NFS where O_EXCL is historically shaky.
        mine.generation = 1;
        const std::string scratch = leaseScratchPath(path);
        writeLeaseScratch(scratch, serializeLease(mine));
        const int link_rc = vfs().linkPath(scratch, path);
        vfs().unlinkPath(scratch);
        if (link_rc == 0)
            return LeaseClaim::Claimed;
        if (link_rc == -EEXIST)
            return LeaseClaim::Raced;
        throw LeaseError("'" + path + "': cannot link lease: " +
                         std::strerror(-link_rc));
    }

    if (state == LeaseRead::Valid &&
        current.deadline >= leaseNow()) {
        return LeaseClaim::Held;
    }

    // Stale (deadline passed) or corrupt (torn write / bit rot):
    // reclaim by bumping the generation — the fencing token — and
    // inheriting the attempt count so retry budgets survive owner
    // death. A corrupt lease parses to generation 0; clamping the
    // bump to >= 2 keeps the invariant that fresh claims are exactly
    // generation 1 and every reclaim is higher. The fence compares
    // (worker, generation) for equality, so even a clamp collision
    // with a corrupted-then-resurrected zombie only lets through a
    // byte-identical result write (see the header note).
    mine.generation =
        std::max<std::uint64_t>(current.generation + 1, 2);
    mine.attempts = current.attempts;
    const std::string scratch = leaseScratchPath(path);
    writeLeaseScratch(scratch, serializeLease(mine));
    return installAndVerify(scratch, path, mine)
               ? LeaseClaim::Claimed
               : LeaseClaim::Raced;
}

bool
renewLease(const std::string &dir, LeaseInfo &mine, double ttl_sec)
{
    const std::string path = cellLeasePath(dir, mine.index);
    if (!leaseStillMine(dir, mine))
        return false;
    LeaseInfo next = mine;
    next.deadline = leaseNow() + ttl_sec;
    const std::string scratch = leaseScratchPath(path);
    writeLeaseScratch(scratch, serializeLease(next));
    if (!installAndVerify(scratch, path, next))
        return false;
    mine = next;
    return true;
}

bool
leaseStillMine(const std::string &dir, const LeaseInfo &mine)
{
    LeaseInfo current;
    return readLease(cellLeasePath(dir, mine.index), current) ==
               LeaseRead::Valid &&
           current.worker == mine.worker &&
           current.generation == mine.generation;
}

void
releaseLease(const std::string &dir, const LeaseInfo &mine)
{
    if (leaseStillMine(dir, mine))
        vfs().unlinkPath(cellLeasePath(dir, mine.index));
}

void
commitCellResult(const std::string &dir, std::size_t index,
                 const LeaseInfo &mine, const std::string &doc)
{
    if (!leaseStillMine(dir, mine)) {
        throw LeaseError(
            "cell " + std::to_string(index) + ": lease for worker '" +
            mine.worker + "' generation " +
            std::to_string(mine.generation) +
            " is no longer current; result write fenced off");
    }
    atomicWriteFile(cellResultPath(dir, index), doc.data(),
                    doc.size());
}

std::size_t
reapStaleLeases(const std::string &dir, std::size_t num_cells)
{
    std::size_t removed = 0;
    const double now = leaseNow();
    for (std::size_t i = 0; i < num_cells; ++i) {
        const std::string path = cellLeasePath(dir, i);
        LeaseInfo lease;
        const LeaseRead state = readLease(path, lease);
        if (state == LeaseRead::Missing)
            continue;
        const bool finished = fileExists(cellResultPath(dir, i));
        const bool stale = state == LeaseRead::Corrupt ||
                           lease.deadline < now;
        if ((finished || stale) && vfs().unlinkPath(path) == 0)
            ++removed;
    }
    return removed;
}

} // namespace morphcache
