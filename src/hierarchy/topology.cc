#include "hierarchy/topology.hh"

#include <algorithm>
#include <cstdio>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/textfmt.hh"

namespace morphcache {

Partition
allPrivate(std::uint32_t num_slices)
{
    Partition partition;
    partition.reserve(num_slices);
    for (std::uint32_t i = 0; i < num_slices; ++i)
        partition.push_back({static_cast<SliceId>(i)});
    return partition;
}

Partition
allShared(std::uint32_t num_slices)
{
    Partition partition(1);
    for (std::uint32_t i = 0; i < num_slices; ++i)
        partition[0].push_back(static_cast<SliceId>(i));
    return partition;
}

Partition
uniformGroups(std::uint32_t num_slices, std::uint32_t group_size)
{
    MC_ASSERT(group_size > 0 && num_slices % group_size == 0);
    Partition partition;
    for (std::uint32_t base = 0; base < num_slices; base += group_size) {
        std::vector<SliceId> group;
        for (std::uint32_t i = 0; i < group_size; ++i)
            group.push_back(static_cast<SliceId>(base + i));
        partition.push_back(std::move(group));
    }
    return partition;
}

bool
isContiguous(const Partition &partition)
{
    std::vector<Violation> findings;
    shapeFindings("", partition, ShapeRule::Contiguous, findings);
    return findings.empty();
}

void
validatePartition(const Partition &partition, std::uint32_t num_slices)
{
    std::vector<Violation> findings;
    partitionFindings("partition", partition, num_slices, findings);
    if (!findings.empty())
        fatal("%s", findings.front().message.c_str());
}

std::vector<std::uint32_t>
groupOfSlice(const Partition &partition, std::uint32_t num_slices)
{
    std::vector<std::uint32_t> group_of(num_slices, 0);
    for (std::uint32_t g = 0; g < partition.size(); ++g) {
        for (SliceId slice : partition[g])
            group_of[slice] = g;
    }
    return group_of;
}

void
checkpointPartition(CkptWriter &w, const Partition &partition,
                    std::uint32_t)
{
    w.u64(partition.size());
    for (const auto &group : partition) {
        w.u64(group.size());
        for (SliceId s : group)
            w.u32(s);
    }
}

void
checkpointPartition(CkptReader &r, Partition &partition,
                    std::uint32_t num_slices)
{
    // A typed error, not validatePartition()'s fatal(): a bad
    // checkpoint byte stream is not an internal bug.
    const std::uint64_t numGroups = r.u64();
    if (numGroups == 0 || numGroups > num_slices)
        r.fail("partition group count " + std::to_string(numGroups) +
               " invalid for " + std::to_string(num_slices) +
               " slices");
    Partition loaded(static_cast<std::size_t>(numGroups));
    for (auto &group : loaded) {
        const std::uint64_t size = r.u64();
        if (size == 0 || size > num_slices)
            r.fail("partition group size " + std::to_string(size) +
                   " invalid");
        group.reserve(static_cast<std::size_t>(size));
        for (std::uint64_t i = 0; i < size; ++i) {
            const std::uint32_t s = r.u32();
            if (s >= num_slices)
                r.fail("slice id " + std::to_string(s) +
                       " out of range");
            group.push_back(static_cast<SliceId>(s));
        }
    }
    std::vector<Violation> findings;
    partitionFindings("partition", loaded, num_slices, findings);
    if (!findings.empty())
        r.fail(findings.front().message);
    partition = std::move(loaded);
}

Topology
Topology::allPrivateTopology(std::uint32_t num_cores)
{
    Topology topo;
    topo.numCores = num_cores;
    topo.l2 = allPrivate(num_cores);
    topo.l3 = allPrivate(num_cores);
    return topo;
}

Topology
Topology::symmetric(std::uint32_t num_cores, std::uint32_t x,
                    std::uint32_t y, std::uint32_t z)
{
    if (x * y * z != num_cores)
        fatal("(%u:%u:%u) does not describe a %u-core topology", x, y,
              z, num_cores);
    Topology topo;
    topo.numCores = num_cores;
    topo.l2 = uniformGroups(num_cores, x);
    topo.l3 = uniformGroups(num_cores, x * y);
    return topo;
}

bool
Topology::respectsInclusion() const
{
    std::vector<Violation> findings;
    inclusionFindings(*this, findings);
    return findings.empty();
}

namespace {

/**
 * Detect the (x:y:z) shape; returns false for asymmetric
 * topologies.
 */
bool
symmetricShape(const Topology &topo, std::size_t &x, std::size_t &y,
               std::size_t &z)
{
    const std::size_t l2_size =
        topo.l2.empty() ? 0 : topo.l2.front().size();
    const bool uniform_l2 = std::all_of(
        topo.l2.begin(), topo.l2.end(),
        [l2_size](const auto &g) { return g.size() == l2_size; });
    const std::size_t l3_size =
        topo.l3.empty() ? 0 : topo.l3.front().size();
    const bool uniform_l3 = std::all_of(
        topo.l3.begin(), topo.l3.end(),
        [l3_size](const auto &g) { return g.size() == l3_size; });

    if (!uniform_l2 || !uniform_l3 || l2_size == 0 ||
        l3_size % l2_size != 0 || !isContiguous(topo.l2) ||
        !isContiguous(topo.l3)) {
        return false;
    }
    x = l2_size;
    y = l3_size / l2_size;
    z = topo.l3.size();
    return true;
}

} // namespace

bool
Topology::isSymmetric() const
{
    std::size_t x = 0, y = 0, z = 0;
    return symmetricShape(*this, x, y, z);
}

std::string
Topology::name() const
{
    std::size_t x = 0, y = 0, z = 0;
    if (symmetricShape(*this, x, y, z)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "(%zu:%zu:%zu)", x, y, z);
        return buf;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "asym[l2:%zu groups, l3:%zu groups]",
                  l2.size(), l3.size());
    return buf;
}

const char *
invariantKindName(InvariantKind kind)
{
    switch (kind) {
      case InvariantKind::PartitionValidity: return "partition";
      case InvariantKind::GroupShape: return "group-shape";
      case InvariantKind::Inclusion: return "inclusion";
      case InvariantKind::LineConservation: return "line-conservation";
      case InvariantKind::SliceOverflow: return "slice-overflow";
    }
    return "?";
}

namespace {

void
add(std::vector<Violation> &out, InvariantKind kind,
    std::string message)
{
    out.push_back(Violation{kind, std::move(message)});
}

} // namespace

void
partitionFindings(const char *level, const Partition &partition,
                  std::uint32_t num_slices, std::vector<Violation> &out)
{
    std::vector<std::uint32_t> seen(num_slices, 0);
    std::uint64_t members = 0;
    for (std::size_t g = 0; g < partition.size(); ++g) {
        const auto &group = partition[g];
        if (group.empty()) {
            add(out, InvariantKind::PartitionValidity,
                strFormat("%s group %zu is empty", level, g));
            continue;
        }
        if (!std::is_sorted(group.begin(), group.end())) {
            add(out, InvariantKind::PartitionValidity,
                strFormat("%s group %zu members out of order", level,
                          g));
        }
        for (SliceId member : group) {
            ++members;
            if (member >= num_slices) {
                add(out, InvariantKind::PartitionValidity,
                    strFormat("%s group %zu names slice %u outside "
                              "[0, %u)",
                              level, g, member, num_slices));
            } else if (++seen[member] == 2) {
                // Report each duplicated slice once.
                add(out, InvariantKind::PartitionValidity,
                    strFormat("%s slice %u appears in more than one "
                              "group",
                              level, member));
            }
        }
    }
    if (members != num_slices) {
        for (std::uint32_t s = 0; s < num_slices; ++s) {
            if (seen[s] == 0) {
                add(out, InvariantKind::PartitionValidity,
                    strFormat("%s slice %u missing from the partition",
                              level, s));
            }
        }
    }
}

void
shapeFindings(const char *level, const Partition &partition,
              ShapeRule rule, std::vector<Violation> &out)
{
    if (rule == ShapeRule::Any)
        return;
    for (std::size_t g = 0; g < partition.size(); ++g) {
        const auto &group = partition[g];
        if (group.empty())
            continue; // already a partition violation
        const bool contiguous =
            static_cast<std::size_t>(group.back() - group.front()) +
                1 ==
            group.size();
        if (!contiguous) {
            add(out, InvariantKind::GroupShape,
                strFormat("%s group %zu [%u..%u] is not a contiguous "
                          "range",
                          level, g, group.front(), group.back()));
            continue;
        }
        if (rule == ShapeRule::AlignedPow2) {
            const auto size =
                static_cast<std::uint32_t>(group.size());
            if (!isPowerOf2(size) || group.front() % size != 0) {
                add(out, InvariantKind::GroupShape,
                    strFormat("%s group %zu (base %u, size %u) is not "
                              "an aligned power-of-two range",
                              level, g, group.front(), size));
            }
        }
    }
}

void
inclusionFindings(const Topology &topology, std::vector<Violation> &out)
{
    // Only meaningful for slices the partitions actually cover, so
    // compute membership defensively.
    std::vector<std::uint32_t> l3_of(topology.numCores,
                                     ~std::uint32_t{0});
    for (std::size_t g = 0; g < topology.l3.size(); ++g) {
        for (SliceId member : topology.l3[g]) {
            if (member < topology.numCores)
                l3_of[member] = static_cast<std::uint32_t>(g);
        }
    }
    for (std::size_t g = 0; g < topology.l2.size(); ++g) {
        const auto &group = topology.l2[g];
        if (group.empty() || group.front() >= topology.numCores)
            continue;
        const std::uint32_t home = l3_of[group.front()];
        for (SliceId member : group) {
            if (member >= topology.numCores)
                continue;
            if (l3_of[member] != home) {
                add(out, InvariantKind::Inclusion,
                    strFormat("L2 group %zu straddles L3 groups (slice "
                              "%u vs slice %u)",
                              g, group.front(), member));
                break;
            }
        }
    }
}

std::vector<Violation>
topologyFindings(const Topology &topology, ShapeRule rule)
{
    std::vector<Violation> out;
    partitionFindings("L2", topology.l2, topology.numCores, out);
    partitionFindings("L3", topology.l3, topology.numCores, out);
    shapeFindings("L2", topology.l2, rule, out);
    shapeFindings("L3", topology.l3, rule, out);
    inclusionFindings(topology, out);
    return out;
}

} // namespace morphcache
