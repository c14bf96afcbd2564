/**
 * @file
 * Build a complete runnable simulation from a RunSpec.
 *
 * The factory is the single place a spec string turns into live
 * objects: the CLI's single-run and campaign modes, the checkpoint
 * inspector's --verify replay, and the tests all construct runs
 * through it, so a checkpoint's embedded spec is guaranteed to
 * rebuild exactly the configuration that wrote it.
 */

#ifndef MORPHCACHE_RUNNER_RUN_FACTORY_HH
#define MORPHCACHE_RUNNER_RUN_FACTORY_HH

#include <memory>

#include "ckpt/run_spec.hh"
#include "sim/memory_system.hh"
#include "sim/simulation.hh"
#include "workload/generator.hh"

namespace morphcache {

/** Live objects built from a RunSpec. */
struct BuiltRun
{
    std::unique_ptr<Workload> workload;
    std::unique_ptr<MemorySystem> system;
    /** Threads of one application sharing the address space. */
    bool sharedSpace = false;
    SimParams sim;
};

/**
 * Construct workload + memory system + simulation parameters for a
 * spec. Throws ConfigError on an unparseable workload or scheme, or
 * on a geometry HierarchyParams::validate() rejects (zero cores).
 */
BuiltRun buildRun(const RunSpec &spec);

} // namespace morphcache

#endif // MORPHCACHE_RUNNER_RUN_FACTORY_HH
