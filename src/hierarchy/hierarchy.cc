#include "hierarchy/hierarchy.hh"

#include <string>

#include "common/error.hh"
#include "common/logging.hh"
#include "stats/registry.hh"

namespace morphcache {

namespace {

/** Private L1 hit latency (Table 3: 3 cycles). */
constexpr Cycle l1Latency = 3;

/** Off-chip latency (Table 3: 300 cycles). */
constexpr Cycle memLatency = 300;

/**
 * Latency of a cache-to-cache transfer from another sharing group
 * (coherence mode only).
 */
constexpr Cycle otherGroupLatency = 60;

/** Validate one slice geometry, naming the level in any error. */
void
validateGeometry(const char *level, const CacheGeometry &geom)
{
    const std::string where = level;
    if (geom.sizeBytes == 0 || geom.assoc == 0 || geom.lineBytes == 0)
        throw ConfigError(where + ": geometry fields must be nonzero");
    if (!isPowerOf2(geom.sizeBytes)) {
        throw ConfigError(where + ": capacity " +
                          std::to_string(geom.sizeBytes) +
                          " bytes is not a power of two");
    }
    if (!isPowerOf2(geom.lineBytes)) {
        throw ConfigError(where + ": line size " +
                          std::to_string(geom.lineBytes) +
                          " bytes is not a power of two");
    }
    if (geom.lineBytes > geom.sizeBytes) {
        throw ConfigError(where +
                          ": line size exceeds slice capacity");
    }
    if (geom.assoc > geom.numLines()) {
        throw ConfigError(
            where + ": associativity " + std::to_string(geom.assoc) +
            " exceeds the slice's " +
            std::to_string(geom.numLines()) + " lines");
    }
    if (!geom.valid()) {
        throw ConfigError(where +
                          ": lines do not divide evenly into " +
                          std::to_string(geom.assoc) + "-way sets");
    }
}

} // namespace

HierarchyParams
HierarchyParams::defaultParams(std::uint32_t num_cores)
{
    HierarchyParams params;
    params.numCores = num_cores;
    params.l2.numSlices = num_cores;
    params.l3.numSlices = num_cores;
    return params;
}

void
HierarchyParams::validate() const
{
    if (numCores == 0)
        throw ConfigError("numCores must be nonzero");
    validateGeometry("L1", l1Geom);
    validateGeometry("L2", l2.sliceGeom);
    validateGeometry("L3", l3.sliceGeom);
    if (l2.numSlices != numCores) {
        throw ConfigError(
            "L2 has " + std::to_string(l2.numSlices) +
            " slices for " + std::to_string(numCores) +
            " cores; the design is one slice per core");
    }
    if (l3.numSlices != numCores) {
        throw ConfigError(
            "L3 has " + std::to_string(l3.numSlices) +
            " slices for " + std::to_string(numCores) +
            " cores; the design is one slice per core");
    }
    if (l2.sliceGeom.lineBytes != l1Geom.lineBytes ||
        l3.sliceGeom.lineBytes != l1Geom.lineBytes) {
        throw ConfigError(
            "line size must match across L1/L2/L3; inclusion and "
            "back-invalidation track whole lines");
    }
    if (l2.localHitLatency == 0 || l3.localHitLatency == 0)
        throw ConfigError("hit latencies must be nonzero");
}

namespace {

/** Validation must precede level construction (members init in
 * declaration order and the levels assert on their geometry). */
const HierarchyParams &
validated(const HierarchyParams &params)
{
    params.validate();
    return params;
}

} // namespace

Hierarchy::Hierarchy(const HierarchyParams &params)
    : params_(validated(params)),
      l1s_(params_.numCores, params_.l1Geom, ReplPolicy::LRU),
      l2_(params.l2), l3_(params.l3),
      topology_(Topology::allPrivateTopology(params.numCores)),
      coreStats_(params.numCores)
{
    lineShift_ = exactLog2(params_.l1Geom.lineBytes);
}

void
Hierarchy::reconfigure(const Topology &topology)
{
    MC_ASSERT(topology.numCores == params_.numCores);
    const std::vector<Violation> findings =
        topologyFindings(topology, ShapeRule::Any);
    if (!findings.empty()) {
        fatal("topology %s breaks the %s rule: %s",
              topology.name().c_str(),
              invariantKindName(findings.front().kind),
              findings.front().message.c_str());
    }
    const std::vector<std::uint32_t> old_l3 =
        groupOfSlice(topology_.l3, params_.numCores);
    topology_ = topology;
    l2_.configure(topology.l2);
    l3_.configure(topology.l3);
    enforceInclusion(old_l3);
}

void
Hierarchy::enforceInclusion(const std::vector<std::uint32_t> &old_l3)
{
    // L2 lines must be backed by the slice's *new* L3 group. Only
    // slices whose new group is not a superset of the old one can
    // have lost backing.
    const auto &geom = params_.l2.sliceGeom;
    for (std::uint32_t s = 0; s < params_.numCores; ++s) {
        bool superset = true;
        for (std::uint32_t m = 0; m < params_.numCores; ++m) {
            if (old_l3[m] == old_l3[s] &&
                l3_.groupOf(static_cast<SliceId>(m)) !=
                    l3_.groupOf(static_cast<SliceId>(s))) {
                superset = false;
                break;
            }
        }
        if (superset)
            continue;
        const CacheSlice slice = l2_.slice(static_cast<SliceId>(s));
        for (std::uint64_t set = 0; set < geom.numSets(); ++set) {
            for (std::uint32_t way = 0; way < geom.assoc; ++way) {
                if (!slice.validAt(set, way))
                    continue;
                const Addr line_addr = slice.lineAddrAt(set, way);
                if (l3_.presentInGroup(static_cast<CoreId>(s),
                                       line_addr))
                    continue;
                const auto id = static_cast<SliceId>(s);
                if (l2_.invalidateInSlices({&id, 1}, line_addr))
                    ++coreStats_[s].writebacks;
            }
        }
    }

    // L1 lines must be present in the owning core's new L2 group.
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        const CacheSlice l1 = l1s_.slice(static_cast<SliceId>(c));
        const auto &l1_geom = params_.l1Geom;
        for (std::uint64_t set = 0; set < l1_geom.numSets(); ++set) {
            for (std::uint32_t way = 0; way < l1_geom.assoc; ++way) {
                if (!l1.validAt(set, way))
                    continue;
                const Addr line_addr = l1.lineAddrAt(set, way);
                if (l2_.presentInGroup(static_cast<CoreId>(c),
                                       line_addr)) {
                    continue;
                }
                const Eviction ev = l1.invalidate(line_addr);
                if (ev.valid && ev.dirty) {
                    if (!l3_.markDirty(static_cast<CoreId>(c),
                                       ev.lineAddr)) {
                        ++coreStats_[c].writebacks;
                    }
                }
            }
        }
    }
}

AccessResult
Hierarchy::access(const MemAccess &access, Cycle now)
{
    MC_ASSERT(access.core < params_.numCores);
    CoreStats &stats = coreStats_[access.core];
    ++stats.accesses;

    const Addr line = access.addr >> lineShift_;
    const bool is_write = access.type == AccessType::Write;
    AccessResult result;
    result.latency = l1Latency;

    // ---- L1 -----------------------------------------------------
    const CacheSlice l1 = l1s_.slice(access.core);
    if (const std::uint32_t way = l1.probe(line); way != l1.assoc()) {
        const std::uint64_t set = l1.setIndex(line);
        l1.touch(set, way, ++l1Stamp_);
        if (is_write) {
            if (!l1.dirtyAt(set, way) && params_.coherence)
                coherenceInvalidate(access.core, line);
            l1.setDirtyAt(set, way);
        }
        ++stats.l1Hits;
        result.servedBy = ServedBy::L1;
        stats.totalLatency += result.latency;
        return result;
    }

    // ---- L2 group -----------------------------------------------
    const LookupOutcome l2_out =
        l2_.lookup(access.core, line, now + result.latency);
    result.latency += l2_out.latency;
    if (l2_out.hit) {
        result.servedBy =
            l2_out.remote ? ServedBy::L2Remote : ServedBy::L2Local;
        if (l2_out.remote)
            ++stats.l2RemoteHits;
        else
            ++stats.l2LocalHits;
        fillL1(access.core, line, false);
    } else {
        // ---- L3 group ---------------------------------------------
        const LookupOutcome l3_out =
            l3_.lookup(access.core, line, now + result.latency);
        result.latency += l3_out.latency;
        if (l3_out.hit) {
            result.servedBy = l3_out.remote ? ServedBy::L3Remote
                                            : ServedBy::L3Local;
            if (l3_out.remote)
                ++stats.l3RemoteHits;
            else
                ++stats.l3LocalHits;
        } else if (params_.coherence &&
                   l3_.findInOtherGroups(access.core, line)) {
            // Cache-to-cache transfer from a sibling group; copies
            // stay valid for reads and are invalidated below for
            // writes.
            result.latency += otherGroupLatency;
            result.servedBy = ServedBy::OtherGroup;
            ++stats.otherGroupTransfers;
            fillL3(access.core, line, false);
        } else {
            result.latency += memLatency;
            result.servedBy = ServedBy::Memory;
            ++stats.memAccesses;
            fillL3(access.core, line, false);
        }
        fillL2(access.core, line, false);
        fillL1(access.core, line, false);
    }

    if (is_write) {
        if (params_.coherence)
            coherenceInvalidate(access.core, line);
        // Write-back, write-allocate: the L1 copy becomes dirty.
        l1.markDirtyIfPresent(line);
    }

    stats.totalLatency += result.latency;
    return result;
}

void
Hierarchy::fillL1(CoreId core, Addr line_addr, bool dirty)
{
    const CacheSlice l1 = l1s_.slice(core);
    const std::uint64_t set = l1.setIndex(line_addr);
    const std::uint32_t way = l1.victimWay(set);
    const Eviction ev = l1.fill(set, way, line_addr, dirty, ++l1Stamp_);
    if (ev.valid && ev.dirty) {
        // Write the victim back into the core's L2 group; inclusion
        // normally guarantees presence, but a copy can have been
        // dropped by reconfiguration or coherence, in which case the
        // writeback continues down.
        if (!l2_.markDirty(core, ev.lineAddr) &&
            !l3_.markDirty(core, ev.lineAddr)) {
            ++coreStats_[core].writebacks;
        }
    }
}

void
Hierarchy::fillL2(CoreId core, Addr line_addr, bool dirty)
{
    const InsertOutcome out = l2_.insert(core, line_addr, dirty);
    if (!out.evicted.valid)
        return;
    if (!params_.inclusive) {
        if (out.evicted.dirty &&
            !l3_.markDirty(static_cast<CoreId>(out.evictedFrom),
                           out.evicted.lineAddr)) {
            ++coreStats_[core].writebacks;
        }
        return;
    }
    // Inclusion: the displaced line leaves every L1 above this L2
    // group.
    bool victim_dirty = out.evicted.dirty;
    if (invalidateL1s(l2_, l2_.groupOf(out.evictedFrom),
                      out.evicted.lineAddr))
        victim_dirty = true;
    if (victim_dirty) {
        if (!l3_.markDirty(static_cast<CoreId>(out.evictedFrom),
                           out.evicted.lineAddr)) {
            ++coreStats_[core].writebacks;
        }
    }
}

void
Hierarchy::fillL3(CoreId core, Addr line_addr, bool dirty)
{
    const InsertOutcome out = l3_.insert(core, line_addr, dirty);
    if (!out.evicted.valid)
        return;
    if (!params_.inclusive) {
        if (out.evicted.dirty)
            ++coreStats_[core].writebacks;
        return;
    }
    // Inclusion: the displaced line leaves the L2 slices and L1s
    // backed by this L3 group.
    const std::uint32_t g = l3_.groupOf(out.evictedFrom);
    bool victim_dirty = out.evicted.dirty;
    if (l2_.invalidateInSlices(l3_.partition()[g], out.evicted.lineAddr))
        victim_dirty = true;
    if (invalidateL1s(l3_, g, out.evicted.lineAddr))
        victim_dirty = true;
    if (victim_dirty)
        ++coreStats_[core].writebacks;
}

bool
Hierarchy::invalidateL1s(const CacheLevelModel &level, std::uint32_t g,
                         Addr line_addr)
{
    bool dirty = false;
    level.forEachCandidateMember(l1s_, g, line_addr, [&](SliceId member) {
        const Eviction ev = l1s_.slice(member).invalidate(line_addr);
        dirty = dirty || (ev.valid && ev.dirty);
        return false;
    });
    return dirty;
}

void
Hierarchy::coherenceInvalidate(CoreId writer, Addr line_addr)
{
    l1s_.forEachCandidate(line_addr, 0, params_.numCores, [&](SliceId c) {
        if (c != writer)
            l1s_.slice(c).invalidate(line_addr);
        return false;
    });
    l2_.invalidateOutsideGroup(writer, line_addr);
    l3_.invalidateOutsideGroup(writer, line_addr);
}

const CoreStats &
Hierarchy::coreStats(CoreId core) const
{
    MC_ASSERT(core < params_.numCores);
    return coreStats_[core];
}

void
Hierarchy::resetCoreStats()
{
    for (auto &stats : coreStats_)
        stats = CoreStats{};
}

void
Hierarchy::resetFootprints()
{
    l2_.resetFootprints();
    l3_.resetFootprints();
}

CacheSlice
Hierarchy::l1(CoreId core)
{
    MC_ASSERT(core < params_.numCores);
    return l1s_.slice(core);
}

void
Hierarchy::registerStats(StatsRegistry &registry) const
{
    for (std::uint32_t c = 0; c < params_.numCores; ++c) {
        const std::string core =
            "sim.core" + std::to_string(c) + ".";
        const CoreStats &stats = coreStats_[c];
        const auto bind = [&](const char *name,
                              const std::uint64_t &field) {
            registry.bindCounter(core + name,
                                 [&field]() { return field; });
        };
        bind("accesses", stats.accesses);
        bind("l1Hits", stats.l1Hits);
        bind("l2LocalHits", stats.l2LocalHits);
        bind("l2RemoteHits", stats.l2RemoteHits);
        bind("l3LocalHits", stats.l3LocalHits);
        bind("l3RemoteHits", stats.l3RemoteHits);
        bind("otherGroupTransfers", stats.otherGroupTransfers);
        bind("memAccesses", stats.memAccesses);
        bind("writebacks", stats.writebacks);
        bind("stallCycles", stats.totalLatency);
    }
    l2_.registerStats(registry, "hier.l2", "bus.l2");
    l3_.registerStats(registry, "hier.l3", "bus.l3");
}

template <class Ar, class Self>
void
Hierarchy::checkpointFields(Ar &ar, Self &self)
{
    // The topology is installed directly: the levels replay
    // configure() on their own saved partitions, and reconfigure()
    // must not run here, since it migrates lines and
    // back-invalidates against contents about to be overwritten.
    const std::uint32_t cores = self.params_.numCores;
    checkpointPartition(ar, self.topology_.l2, cores);
    checkpointPartition(ar, self.topology_.l3, cores);
    ar.expectU64("L1 slice count", cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        ar.nested(self.l1s_, static_cast<SliceId>(c));
    ar.nested(self.l2_);
    ar.nested(self.l3_);
    for (auto &stats : self.coreStats_) {
        ar.u64(stats.accesses);
        ar.u64(stats.l1Hits);
        ar.u64(stats.l2LocalHits);
        ar.u64(stats.l2RemoteHits);
        ar.u64(stats.l3LocalHits);
        ar.u64(stats.l3RemoteHits);
        ar.u64(stats.otherGroupTransfers);
        ar.u64(stats.memAccesses);
        ar.u64(stats.writebacks);
        ar.u64(stats.totalLatency);
    }
    ar.u64(self.l1Stamp_);
}

void
Hierarchy::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
Hierarchy::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
    // The topology and each level load their own partitions: a
    // checkpoint in which they disagree, or whose topology breaks
    // inclusion, would leave the controller reasoning over a
    // topology the levels do not implement.
    if (topology_.l2 != l2_.partition() || topology_.l3 != l3_.partition())
        r.fail("hierarchy topology differs from its levels' partitions");
    std::vector<Violation> straddles;
    inclusionFindings(topology_, straddles);
    if (!straddles.empty())
        r.fail("hierarchy topology breaks inclusion: " +
               straddles.front().message);
}

} // namespace morphcache
