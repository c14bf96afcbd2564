#include "sim/memory_system.hh"

#include "common/logging.hh"
#include "stats/registry.hh"
#include "stats/tracing.hh"

namespace morphcache {

HierarchyParams
staticLatencyModel(HierarchyParams params, RemoteCost cost)
{
    MC_ASSERT(cost != RemoteCost::Bus);
    params.l2.remoteCost = cost;
    params.l3.remoteCost = cost;
    return params;
}

StaticTopologySystem::StaticTopologySystem(
    HierarchyParams params, const Topology &topology, RemoteCost remote,
    std::string name, std::unique_ptr<LevelHooks> l2_policy,
    std::unique_ptr<LevelHooks> l3_policy)
    : l2Policy_(std::move(l2_policy)), l3Policy_(std::move(l3_policy)),
      hierarchy_(staticLatencyModel(std::move(params), remote)),
      name_(name.empty() ? topology.name() : std::move(name))
{
    hierarchy_.reconfigure(topology);
    hierarchy_.l2().setHooks(l2Policy_.get());
    hierarchy_.l3().setHooks(l3Policy_.get());
}

AccessResult
StaticTopologySystem::access(const MemAccess &access, Cycle now)
{
    return hierarchy_.access(access, now);
}

void
StaticTopologySystem::epochBoundary()
{
    if (l2Policy_)
        l2Policy_->epochBoundary();
    if (l3Policy_)
        l3Policy_->epochBoundary();
}

const CoreStats &
StaticTopologySystem::coreStats(CoreId core) const
{
    return hierarchy_.coreStats(core);
}

std::uint32_t
StaticTopologySystem::numCores() const
{
    return hierarchy_.numCores();
}

std::string
StaticTopologySystem::name() const
{
    return name_;
}

void
StaticTopologySystem::registerStats(StatsRegistry &registry)
{
    hierarchy_.registerStats(registry);
}

template <class Ar, class Self>
void
StaticTopologySystem::checkpointFields(Ar &ar, Self &self)
{
    ar.nested(self.hierarchy_);
    if (self.l2Policy_)
        ar.nested(*self.l2Policy_);
    if (self.l3Policy_)
        ar.nested(*self.l3Policy_);
}

void
StaticTopologySystem::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
StaticTopologySystem::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

MorphCacheSystem::MorphCacheSystem(HierarchyParams params,
                                   const MorphConfig &config)
    : hierarchy_(std::move(params)),
      controller_(config, hierarchy_.numCores())
{
    // MorphCache starts from the per-core private design point
    // (Section 2), which is the hierarchy's default topology.
    if (FaultInjector *faults = controller_.faultInjector()) {
        hierarchy_.l2().setBusFaultHook(faults);
        hierarchy_.l3().setBusFaultHook(faults);
    }
}

AccessResult
MorphCacheSystem::access(const MemAccess &access, Cycle now)
{
    return hierarchy_.access(access, now);
}

void
MorphCacheSystem::epochBoundary()
{
    traceBusSamples();
    controller_.epochBoundary(hierarchy_);
}

void
MorphCacheSystem::registerStats(StatsRegistry &registry)
{
    hierarchy_.registerStats(registry);
    controller_.registerStats(registry);
}

void
MorphCacheSystem::setTracer(Tracer *tracer)
{
    tracer_ = tracer;
    controller_.setTracer(tracer);
    // A tracer attached mid-run must see deltas from this point on,
    // not the full cumulative bus counters as its first busSample.
    const SegmentedBus &l2_bus = hierarchy_.l2().bus();
    const SegmentedBus &l3_bus = hierarchy_.l3().bus();
    lastL2QueueCycles_ = l2_bus.queueingCycles();
    lastL2Txns_ = l2_bus.numTransactions();
    lastL3QueueCycles_ = l3_bus.queueingCycles();
    lastL3Txns_ = l3_bus.numTransactions();
}

void
MorphCacheSystem::traceBusSamples()
{
    if (!tracer_ || !tracer_->enabled())
        return;
    const SegmentedBus &l2_bus = hierarchy_.l2().bus();
    const SegmentedBus &l3_bus = hierarchy_.l3().bus();
    const std::uint64_t l2q = l2_bus.queueingCycles();
    const std::uint64_t l2t = l2_bus.numTransactions();
    const std::uint64_t l3q = l3_bus.queueingCycles();
    const std::uint64_t l3t = l3_bus.numTransactions();
    TraceEvent ev("busSample");
    ev.u64("l2QueueCycles", l2q - lastL2QueueCycles_)
        .u64("l2Transactions", l2t - lastL2Txns_)
        .u64("l3QueueCycles", l3q - lastL3QueueCycles_)
        .u64("l3Transactions", l3t - lastL3Txns_);
    tracer_->emit(ev);
    lastL2QueueCycles_ = l2q;
    lastL2Txns_ = l2t;
    lastL3QueueCycles_ = l3q;
    lastL3Txns_ = l3t;
}

const CoreStats &
MorphCacheSystem::coreStats(CoreId core) const
{
    return hierarchy_.coreStats(core);
}

std::uint32_t
MorphCacheSystem::numCores() const
{
    return hierarchy_.numCores();
}

template <class Ar, class Self>
void
MorphCacheSystem::checkpointFields(Ar &ar, Self &self)
{
    ar.nested(self.hierarchy_);
    ar.nested(self.controller_);
    ar.u64(self.lastL2QueueCycles_);
    ar.u64(self.lastL2Txns_);
    ar.u64(self.lastL3QueueCycles_);
    ar.u64(self.lastL3Txns_);
}

void
MorphCacheSystem::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
MorphCacheSystem::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

} // namespace morphcache
