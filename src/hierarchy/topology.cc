#include "hierarchy/topology.hh"

#include <algorithm>
#include <cstdio>

#include "common/bitops.hh"
#include "common/logging.hh"

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
    for (const auto &group : partition) {
        for (std::size_t i = 1; i < group.size(); ++i) {
            if (group[i] != group[i - 1] + 1)
                return false;
        }
    }
    return true;
}

bool
isAlignedPow2(const Partition &partition)
{
    if (!isContiguous(partition))
        return false;
    for (const auto &group : partition) {
        const auto size = static_cast<std::uint32_t>(group.size());
        if (!isPowerOf2(size) || group.front() % size != 0)
            return false;
    }
    return true;
}

void
validatePartition(const Partition &partition, std::uint32_t num_slices)
{
    std::vector<bool> seen(num_slices, false);
    for (const auto &group : partition) {
        if (group.empty())
            fatal("topology partition contains an empty group");
        for (SliceId slice : group) {
            if (slice >= num_slices)
                fatal("slice %u out of range (%u slices)", slice,
                      num_slices);
            if (seen[slice])
                fatal("slice %u appears in two groups", slice);
            seen[slice] = true;
        }
    }
    for (std::uint32_t i = 0; i < num_slices; ++i) {
        if (!seen[i])
            fatal("slice %u missing from partition", i);
    }
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
    std::vector<bool> seen(num_slices, false);
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
            if (seen[s])
                r.fail("slice " + std::to_string(s) +
                       " appears in two partition groups");
            seen[s] = true;
            group.push_back(static_cast<SliceId>(s));
        }
    }
    for (std::uint32_t s = 0; s < num_slices; ++s) {
        if (!seen[s])
            r.fail("slice " + std::to_string(s) +
                   " missing from partition");
    }
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
    const auto l3_group = groupOfSlice(l3, numCores);
    for (const auto &group : l2) {
        for (std::size_t i = 1; i < group.size(); ++i) {
            if (l3_group[group[i]] != l3_group[group[0]])
                return false;
        }
    }
    return true;
}

bool
Topology::isPow2Aligned() const
{
    return isAlignedPow2(l2) && isAlignedPow2(l3);
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

} // namespace morphcache
