#include "ckpt/ckpt.hh"

#include <csignal>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/textfmt.hh"

namespace morphcache {

namespace {

const char ckptMagic[4] = {'M', 'C', 'K', 'P'};

volatile std::sig_atomic_t g_interrupt = 0;

/**
 * Strip and verify the trailing checksum. Returns the payload size
 * (file minus the 8 checksum bytes). Checked before any parsing so
 * arbitrary corruption is always a typed failure.
 */
std::size_t
verifyChecksum(const std::string &path,
               const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() < 8 + 4 + 4 + 8 + 8 + 8) {
        throw CkptError("'" + path + "': file of " +
                        std::to_string(bytes.size()) +
                        " bytes is too short to be a checkpoint");
    }
    const std::size_t payload = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(bytes[payload + i])
                  << (8 * i);
    const std::uint64_t computed = fnv1a64(bytes.data(), payload);
    if (stored != computed) {
        throw CkptError("'" + path + "': checksum mismatch: stored " +
                        hex64(stored) + ", computed " +
                        hex64(computed) +
                        " (corrupt or truncated checkpoint)");
    }
    return payload;
}

/** Read and validate the fixed header; returns (specHash, seed, epochsDone). */
struct Header
{
    std::uint32_t version = 0;
    std::uint64_t specHash = 0;
    std::uint64_t seed = 0;
    std::uint64_t epochsDone = 0;
};

Header
readHeader(CkptReader &r)
{
    char magic[4];
    r.raw(magic, 4);
    if (std::memcmp(magic, ckptMagic, 4) != 0) {
        r.fail(std::string("bad magic: expected \"MCKP\", found \"") +
               std::string(magic, 4) + "\"");
    }
    Header h;
    h.version = r.u32();
    if (h.version != ckptVersion) {
        r.fail("checkpoint format version mismatch: expected " +
               std::to_string(ckptVersion) + ", found " +
               std::to_string(h.version));
    }
    h.specHash = r.u64();
    h.seed = r.u64();
    h.epochsDone = r.u64();
    return h;
}

/**
 * Enter a section: read + check the 4-byte tag, return the declared
 * payload length after validating it against the remaining bytes.
 */
std::uint64_t
enterSection(CkptReader &r, const char tag[4])
{
    char found[4];
    r.raw(found, 4);
    if (std::memcmp(found, tag, 4) != 0) {
        r.fail(std::string("section tag mismatch: expected '") +
               std::string(tag, 4) + "', found '" +
               std::string(found, 4) + "'");
    }
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) {
        r.fail(std::string("section '") + std::string(tag, 4) +
               "' declares " + std::to_string(len) +
               " bytes but only " + std::to_string(r.remaining()) +
               " remain");
    }
    return len;
}

/** Check a section consumed exactly its declared length. */
void
leaveSection(CkptReader &r, const char tag[4], std::size_t start,
             std::uint64_t len)
{
    const std::size_t used = r.offset() - start;
    if (used != len) {
        r.fail(std::string("section '") + std::string(tag, 4) +
               "' declared " + std::to_string(len) +
               " bytes but its reader consumed " +
               std::to_string(used));
    }
}

} // namespace

void
writeCheckpoint(const std::string &path, const RunSpec &spec,
                const CkptRunState &state)
{
    MC_ASSERT(state.simulation && state.system && state.workload);

    CkptWriter w;
    w.bytes(ckptMagic, 4);
    w.u32(ckptVersion);
    w.u64(specHash(spec));
    w.u64(spec.seed);
    w.u64(state.simulation->recordedEpochs());

    std::size_t tok = w.beginSection("SPEC");
    saveSpec(w, spec);
    w.endSection(tok);

    tok = w.beginSection("WKLD");
    state.workload->saveState(w);
    w.endSection(tok);

    tok = w.beginSection("SYST");
    state.system->saveState(w);
    w.endSection(tok);

    tok = w.beginSection("SIMU");
    state.simulation->saveState(w);
    w.endSection(tok);

    tok = w.beginSection("REGY");
    w.b(state.registry != nullptr);
    if (state.registry)
        state.registry->saveState(w);
    w.endSection(tok);

    tok = w.beginSection("TRCE");
    w.b(state.tracer != nullptr);
    if (state.tracer) {
        state.tracer->saveState(w);
        w.u64(state.traceByteOffset);
    }
    w.endSection(tok);

    const std::uint64_t sum =
        fnv1a64(w.buffer().data(), w.buffer().size());
    w.u64(sum);

    // Rotate the previous consistent checkpoint into the fallback
    // slot, then land the new one atomically. If the write fails
    // after the rotation the main file is gone, but
    // restoreCheckpointChain still finds `<path>.prev`; a failed
    // rotation surfaces as a typed IoError before the old chain is
    // disturbed.
    atomicWriteFileWithRotation(path, w.buffer());
}

RestoreOutcome
readCheckpoint(const std::string &path, const RunSpec &spec,
               const CkptRunState &state)
{
    MC_ASSERT(state.simulation && state.system && state.workload);

    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    const std::size_t payload = verifyChecksum(path, bytes);
    CkptReader r(path, bytes.data(), payload);

    const Header h = readHeader(r);
    const std::uint64_t want = specHash(spec);
    if (h.specHash != want) {
        r.fail("config-hash mismatch: checkpoint was taken under " +
               hex64(h.specHash) + ", this run is " + hex64(want) +
               " (" + describe(spec) + ")");
    }
    if (h.seed != spec.seed) {
        r.fail("seed mismatch: checkpoint has " +
               std::to_string(h.seed) + ", this run uses " +
               std::to_string(spec.seed));
    }

    std::uint64_t len = enterSection(r, "SPEC");
    std::size_t start = r.offset();
    loadSpec(r); // self-description; binding already checked above
    leaveSection(r, "SPEC", start, len);

    len = enterSection(r, "WKLD");
    start = r.offset();
    state.workload->loadState(r);
    leaveSection(r, "WKLD", start, len);

    len = enterSection(r, "SYST");
    start = r.offset();
    state.system->loadState(r);
    leaveSection(r, "SYST", start, len);

    len = enterSection(r, "SIMU");
    start = r.offset();
    state.simulation->loadState(r);
    leaveSection(r, "SIMU", start, len);

    len = enterSection(r, "REGY");
    start = r.offset();
    const bool hasRegistry = r.b();
    if (hasRegistry) {
        if (state.registry) {
            state.registry->loadState(r);
        } else {
            r.skip(len - (r.offset() - start));
        }
    } else if (state.registry) {
        r.fail("checkpoint has no stats-registry section but this "
               "run snapshots one");
    }
    leaveSection(r, "REGY", start, len);

    RestoreOutcome outcome;
    len = enterSection(r, "TRCE");
    start = r.offset();
    const bool hasTracer = r.b();
    if (hasTracer) {
        if (state.tracer) {
            state.tracer->loadState(r);
            outcome.traceByteOffset = r.u64();
        } else {
            r.skip(len - (r.offset() - start));
        }
    }
    leaveSection(r, "TRCE", start, len);

    if (r.remaining() != 0)
        r.fail(std::to_string(r.remaining()) +
               " trailing bytes after the last section");

    outcome.pathUsed = path;
    outcome.epochsCompleted = h.epochsDone;
    return outcome;
}

RestoreOutcome
restoreCheckpointChain(const std::string &path, const RunSpec &spec,
                       const CkptRunState &state)
{
    try {
        return readCheckpoint(path, spec, state);
    } catch (const CkptError &primary) {
        const std::string prev = path + ".prev";
        try {
            RestoreOutcome outcome =
                readCheckpoint(prev, spec, state);
            outcome.usedFallback = true;
            warn("checkpoint recovery: '%s' unusable (%s); "
                 "restored previous checkpoint '%s' "
                 "(%llu epochs completed)",
                 path.c_str(), primary.what(), prev.c_str(),
                 static_cast<unsigned long long>(
                     outcome.epochsCompleted));
            return outcome;
        } catch (const CkptError &) {
            // Surface the main file's failure, not the fallback's.
            throw primary;
        }
    }
}

CkptInfo
inspectCheckpoint(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = readFileBytes(path);
    CkptInfo info;
    info.fileSize = bytes.size();
    const std::size_t payload = verifyChecksum(path, bytes);
    info.checksumOk = true;

    CkptReader r(path, bytes.data(), payload);
    const Header h = readHeader(r);
    info.version = h.version;
    info.specHash = h.specHash;
    info.seed = h.seed;
    info.epochsCompleted = h.epochsDone;

    bool sawSpec = false;
    while (r.remaining() > 0) {
        char tag[4];
        r.raw(tag, 4);
        const std::uint64_t len = r.u64();
        if (len > r.remaining()) {
            r.fail(std::string("section '") + std::string(tag, 4) +
                   "' declares " + std::to_string(len) +
                   " bytes but only " +
                   std::to_string(r.remaining()) + " remain");
        }
        info.sections.emplace_back(std::string(tag, 4), len);
        if (std::memcmp(tag, "SPEC", 4) == 0) {
            const std::size_t start = r.offset();
            info.spec = loadSpec(r);
            sawSpec = true;
            r.skip(len - (r.offset() - start));
        } else {
            r.skip(static_cast<std::size_t>(len));
        }
    }
    if (!sawSpec)
        r.fail("checkpoint has no SPEC section");
    return info;
}

void
requestCkptInterrupt()
{
    g_interrupt = 1;
}

bool
ckptInterruptRequested()
{
    return g_interrupt != 0;
}

void
clearCkptInterrupt()
{
    g_interrupt = 0;
}

} // namespace morphcache
