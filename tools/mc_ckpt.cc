/**
 * @file
 * mc_ckpt — checkpoint inspector.
 *
 * Dumps the header, section inventory, and embedded run spec of a
 * MorphCache checkpoint file without restoring anything:
 *
 *   mc_ckpt run.ckpt
 *
 * With --verify, additionally rebuilds the run from the embedded
 * spec, restores the full state from the checkpoint, and replays
 * the structural invariant checks (partition validity, group
 * shapes, L2-within-L3 inclusion, slice occupancy) against the
 * restored hierarchy — a corrupt-but-checksum-valid checkpoint
 * cannot slip structurally impossible state past it:
 *
 *   mc_ckpt --verify run.ckpt
 *
 * Exit codes: 0 inspect/verify OK, 1 checkpoint invalid or
 * verification failed, 2 usage.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/invariant.hh"
#include "ckpt/ckpt.hh"
#include "common/error.hh"
#include "runner/run_factory.hh"
#include "sim/memory_system.hh"
#include "sim/simulation.hh"
#include "stats/registry.hh"

using namespace morphcache;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--verify] <checkpoint>\n",
                 argv0);
    std::exit(2);
}

void
printInfo(const std::string &path, const CkptInfo &info)
{
    std::printf("checkpoint : %s\n", path.c_str());
    std::printf("size       : %llu bytes\n",
                static_cast<unsigned long long>(info.fileSize));
    std::printf("version    : %u\n", info.version);
    std::printf("config hash: %016llx\n",
                static_cast<unsigned long long>(info.specHash));
    std::printf("seed       : %llu\n",
                static_cast<unsigned long long>(info.seed));
    std::printf("epochs done: %llu\n",
                static_cast<unsigned long long>(
                    info.epochsCompleted));
    std::printf("checksum   : %s\n",
                info.checksumOk ? "ok" : "BAD");
    std::printf("spec       : %s\n", describe(info.spec).c_str());
    for (const auto &[tag, bytes] : info.sections) {
        std::printf("section %s: %llu bytes\n", tag.c_str(),
                    static_cast<unsigned long long>(bytes));
    }
}

/**
 * Restore the checkpoint into a freshly built run and replay the
 * invariant checks against the restored hierarchy. Returns the
 * number of violations (schemes without a reconfigurable hierarchy
 * verify restore success only).
 */
std::size_t
verifyRestoredState(const std::string &path, const CkptInfo &info)
{
    BuiltRun built = buildRun(info.spec);
    Simulation simulation(*built.system, *built.workload, built.sim);

    // No registry bound: the REGY layout depends on which stats the
    // producing context registered (CLI runs add profiler counters,
    // campaign cells do not), so verification restores everything
    // except the snapshot history, which is skipped.
    CkptRunState state;
    state.simulation = &simulation;
    state.system = built.system.get();
    state.workload = built.workload.get();
    Tracer tracer;
    state.tracer = &tracer;

    const RestoreOutcome outcome =
        readCheckpoint(path, info.spec, state);
    std::printf("restore    : ok (%llu recorded epochs)\n",
                static_cast<unsigned long long>(
                    outcome.epochsCompleted));

    // MorphCache keeps the default mode's aligned power-of-two
    // groups (the Section 5.5 extension modes are not reachable from
    // a RunSpec); static shapes need not be aligned.
    const Hierarchy *hier = nullptr;
    ShapeRule shapes = ShapeRule::Any;
    if (const auto *morph = dynamic_cast<const MorphCacheSystem *>(
            built.system.get())) {
        hier = &morph->hierarchy();
        shapes = ShapeRule::AlignedPow2;
    } else if (const auto *stat =
                   dynamic_cast<const StaticTopologySystem *>(
                       built.system.get())) {
        hier = &stat->hierarchy();
    }
    if (!hier) {
        std::printf("invariants : n/a (scheme '%s' has no "
                    "reconfigurable hierarchy)\n",
                    info.spec.scheme.c_str());
        return 0;
    }

    const InvariantChecker checker(CheckPolicy::Log);
    std::vector<Violation> violations =
        checker.checkTopology(hier->topology(), shapes);
    const std::vector<Violation> occupancy =
        checker.checkOccupancy(*hier);
    violations.insert(violations.end(), occupancy.begin(),
                      occupancy.end());

    if (violations.empty()) {
        std::printf("invariants : ok\n");
    } else {
        for (const Violation &v : violations) {
            std::printf("invariants : VIOLATION [%s] %s\n",
                        invariantKindName(v.kind),
                        v.message.c_str());
        }
    }
    return violations.size();
}

} // namespace

int
main(int argc, char **argv)
{
    bool verify = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verify") == 0)
            verify = true;
        else if (path.empty())
            path = argv[i];
        else
            usage(argv[0]);
    }
    if (path.empty())
        usage(argv[0]);

    try {
        const CkptInfo info = inspectCheckpoint(path);
        printInfo(path, info);
        if (verify && verifyRestoredState(path, info) > 0)
            return 1;
        return 0;
    } catch (const SimError &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
}
