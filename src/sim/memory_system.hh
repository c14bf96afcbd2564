/**
 * @file
 * The memory-system abstraction the simulator drives, plus the two
 * standard concrete systems: a fixed (static) topology and a
 * MorphCache-managed hierarchy. The PIPP, UCP and DSR baselines are
 * fixed topologies with level policies attached; their factories
 * live in src/baselines.
 */

#ifndef MORPHCACHE_SIM_MEMORY_SYSTEM_HH
#define MORPHCACHE_SIM_MEMORY_SYSTEM_HH

#include <memory>
#include <string>

#include "hierarchy/hierarchy.hh"
#include "morph/controller.hh"

namespace morphcache {

class StatsRegistry;
class Tracer;

/**
 * Anything that can serve memory accesses and adapt at epoch
 * boundaries.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /** Serve one access at CPU cycle `now`. */
    virtual AccessResult access(const MemAccess &access, Cycle now) = 0;

    /** Called by the simulator after every epoch. */
    virtual void epochBoundary() {}

    /** Cumulative per-core counters. */
    virtual const CoreStats &coreStats(CoreId core) const = 0;

    /** Core count. */
    virtual std::uint32_t numCores() const = 0;

    /** Display name for reports. */
    virtual std::string name() const = 0;

    /**
     * Register this system's tallies onto a stats registry.
     * Default: nothing registered.
     */
    virtual void registerStats(StatsRegistry &registry) { (void)registry; }

    /**
     * Attach a decision-provenance tracer (not owned; nullptr
     * detaches). Default: ignored.
     */
    virtual void setTracer(Tracer *tracer) { (void)tracer; }

    /**
     * Serialize/restore the complete mutable system state (cache
     * contents, policy state, counters). The defaults throw
     * CkptError so a system without checkpoint support fails typed
     * instead of resuming half-restored.
     */
    virtual void
    saveState(CkptWriter &w) const
    {
        (void)w;
        throw CkptError("memory system '" + name() +
                        "' does not support checkpoint/restore");
    }

    virtual void
    loadState(CkptReader &r)
    {
        (void)r;
        throw CkptError("memory system '" + name() +
                        "' does not support checkpoint/restore");
    }
};

/**
 * The remote-cost rule of every fixed design: `params` with both
 * levels' remote-slice traffic priced at `cost`, never the segmented
 * bus (a crossbar / NUCA fabric serves remote slices, so there is no
 * segment to queue on). The static topologies, DSR and the ideal
 * offline oracle pay RemoteCost::Premium, the 15 cycles an
 * uncontended MorphCache transaction costs; PIPP, UCP and the
 * latency-model ablation's paper-flat statics pay RemoteCost::None,
 * Section 4's flat 10/30-cycle latencies at any sharing degree.
 */
HierarchyParams staticLatencyModel(HierarchyParams params,
                                   RemoteCost cost);

/**
 * A fixed cache topology: the paper's static baselines, and with
 * level policies attached, the PIPP, UCP and DSR baselines. Its
 * remote-slice traffic follows staticLatencyModel().
 */
class StaticTopologySystem : public MemorySystem
{
  public:
    /**
     * @param params Hierarchy parameters.
     * @param topology Topology to hold for the whole run.
     * @param remote Remote cost of both levels: the fixed premium
     *        (default) or None, the paper's flat latencies.
     * @param name Display name; empty names the system after its
     *        topology.
     * @param l2_policy,l3_policy Owned level policies (null: the
     *        default LRU behaviour, with no hook calls on the
     *        access path).
     */
    StaticTopologySystem(HierarchyParams params,
                         const Topology &topology,
                         RemoteCost remote = RemoteCost::Premium,
                         std::string name = {},
                         std::unique_ptr<LevelHooks> l2_policy = {},
                         std::unique_ptr<LevelHooks> l3_policy = {});

    AccessResult access(const MemAccess &access, Cycle now) override;
    void epochBoundary() override;
    const CoreStats &coreStats(CoreId core) const override;
    std::uint32_t numCores() const override;
    std::string name() const override;
    void registerStats(StatsRegistry &registry) override;
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /**
     * Underlying hierarchy (stats, tests). The ideal offline oracle
     * copies it to probe each candidate topology and reconfigures it
     * to commit the winner.
     */
    Hierarchy &hierarchy() { return hierarchy_; }
    const Hierarchy &hierarchy() const { return hierarchy_; }

    /** L2 policy, or null (tests). */
    const LevelHooks *l2Policy() const { return l2Policy_.get(); }

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    // The policies outlive the hierarchy, which holds raw pointers
    // to them.
    std::unique_ptr<LevelHooks> l2Policy_;
    std::unique_ptr<LevelHooks> l3Policy_;
    Hierarchy hierarchy_;
    std::string name_; // ckpt: derived(StaticTopologySystem)
};

/**
 * A MorphCache-managed hierarchy: starts from per-core private
 * slices, reconfigures at every epoch boundary, and pays the
 * segmented bus (LevelParams' default RemoteCost::Bus) on
 * merged-slice traffic.
 */
class MorphCacheSystem : public MemorySystem
{
  public:
    /**
     * @param params Hierarchy parameters.
     * @param config Controller configuration.
     */
    MorphCacheSystem(HierarchyParams params, const MorphConfig &config);

    AccessResult access(const MemAccess &access, Cycle now) override;
    void epochBoundary() override;
    const CoreStats &coreStats(CoreId core) const override;
    std::uint32_t numCores() const override;
    std::string name() const override { return "MorphCache"; }
    void registerStats(StatsRegistry &registry) override;
    void setTracer(Tracer *tracer) override;
    void saveState(CkptWriter &w) const override;
    void loadState(CkptReader &r) override;

    /** Underlying hierarchy. */
    Hierarchy &hierarchy() { return hierarchy_; }
    const Hierarchy &hierarchy() const { return hierarchy_; }

    /** Reconfiguration controller (stats). */
    const MorphController &controller() const { return controller_; }

  private:
    template <class Ar, class Self>
    static void checkpointFields(Ar &ar, Self &self);

    /** Emit per-level bus-contention sample events for this epoch. */
    void traceBusSamples();

    Hierarchy hierarchy_;
    MorphController controller_;
    /** Decision-provenance tracer (not owned; null = disabled). */
    Tracer *tracer_ = nullptr; // ckpt: transient(wiring; reattached by owner)
    /** Bus counter values at the previous epoch boundary. */
    std::uint64_t lastL2QueueCycles_ = 0;
    std::uint64_t lastL2Txns_ = 0;
    std::uint64_t lastL3QueueCycles_ = 0;
    std::uint64_t lastL3Txns_ = 0;
};

} // namespace morphcache

#endif // MORPHCACHE_SIM_MEMORY_SYSTEM_HH
