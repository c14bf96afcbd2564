/**
 * @file
 * Cache topology descriptors.
 *
 * A topology assigns every L2 and L3 slice to a sharing group. The
 * paper's (x:y:z) notation describes the *symmetric* topologies:
 * each L2 group spans x slices (x cores share it), each L3 logical
 * slice is shared by y L2 groups, and there are z L3 groups, with
 * x*y*z equal to the core count. MorphCache itself routinely leaves
 * the symmetric space (Section 2.4 reports 39-54% of its
 * reconfigurations producing asymmetric shapes), so the general
 * representation here is an arbitrary partition per level.
 */

#ifndef MORPHCACHE_HIERARCHY_TOPOLOGY_HH
#define MORPHCACHE_HIERARCHY_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"

namespace morphcache {

/**
 * A partition of the slices of one cache level into sharing groups.
 * Groups are listed in ascending order of their first slice; within
 * a group, slices are in ascending order.
 */
using Partition = std::vector<std::vector<SliceId>>;

/** Partition with every slice in its own group. */
Partition allPrivate(std::uint32_t num_slices);

/** Partition with all slices in one group. */
Partition allShared(std::uint32_t num_slices);

/**
 * Partition into contiguous groups of uniform size `group_size`
 * (must divide num_slices).
 */
Partition uniformGroups(std::uint32_t num_slices,
                        std::uint32_t group_size);

/** True when every group is a contiguous slice range. */
bool isContiguous(const Partition &partition);

/** True when every group is an aligned power-of-two range. */
bool isAlignedPow2(const Partition &partition);

/**
 * Validate that `partition` covers slices [0, num_slices) exactly
 * once; fatal() otherwise.
 */
void validatePartition(const Partition &partition,
                       std::uint32_t num_slices);

/** group_of[slice] lookup table for a partition. */
std::vector<std::uint32_t> groupOfSlice(const Partition &partition,
                                        std::uint32_t num_slices);

/**
 * Checkpoint a partition of `num_slices` slices: a u64 group count,
 * then each group's u64 size and u32 slice ids. The load checks
 * every count and id, and that the groups cover each slice exactly
 * once, with a typed CkptError before it assigns `partition`.
 */
void checkpointPartition(CkptWriter &w, const Partition &partition,
                         std::uint32_t num_slices);
void checkpointPartition(CkptReader &r, Partition &partition,
                         std::uint32_t num_slices);

/**
 * Two-level cache topology over `numCores` cores with one L2 and
 * one L3 slice per core.
 */
struct Topology
{
    /** Number of cores (= slices per level). */
    std::uint32_t numCores = 16;
    /** L2 sharing groups. */
    Partition l2;
    /** L3 sharing groups. */
    Partition l3;

    /** Per-core private L2 and L3: the MorphCache starting point. */
    static Topology allPrivateTopology(std::uint32_t num_cores);

    /**
     * The paper's (x:y:z) notation: x cores per L2 group, y L2
     * groups per L3 group, z L3 groups; requires x*y*z == cores.
     */
    static Topology symmetric(std::uint32_t num_cores, std::uint32_t x,
                              std::uint32_t y, std::uint32_t z);

    /**
     * Inclusion feasibility (paper Sections 2.2/2.3): every L2
     * group must be contained in a single L3 group, otherwise a
     * merged L2 could outsize its backing L3 and inclusion breaks.
     */
    bool respectsInclusion() const;

    /** True when both levels only use aligned power-of-two groups. */
    bool isPow2Aligned() const;

    /** "(x:y:z)" for symmetric shapes, else "asym[l2|l3]" detail. */
    std::string name() const;

    /**
     * True when the topology is expressible in (x:y:z) form:
     * uniform contiguous L2 groups of size x and L3 groups of size
     * x*y. MorphCache outcomes that fail this test are the
     * "asymmetric configurations" of Section 2.4.
     */
    bool isSymmetric() const;

    /** Structural equality. */
    bool operator==(const Topology &other) const = default;
};

} // namespace morphcache

#endif // MORPHCACHE_HIERARCHY_TOPOLOGY_HH
