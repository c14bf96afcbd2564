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
 * Within a group, slices must be listed in ascending order: every
 * door a partition enters a level through (configure(),
 * reconfigure(), the checkpoint loaders, the checker) enforces it
 * with the rulebook below. The order of the group list carries no
 * meaning.
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

/**
 * Validate `partition` against the partition rule
 * (partitionFindings()); fatal() on the first finding.
 */
void validatePartition(const Partition &partition,
                       std::uint32_t num_slices);

/** group_of[slice] lookup table for a partition. */
std::vector<std::uint32_t> groupOfSlice(const Partition &partition,
                                        std::uint32_t num_slices);

/**
 * Checkpoint a partition of `num_slices` slices: a u64 group count,
 * then each group's u64 size and u32 slice ids. The load bounds
 * every count and id as it reads them, then throws a typed
 * CkptError on the partition rule's first finding before it assigns
 * `partition`.
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
     * merged L2 could outsize its backing L3 and inclusion breaks
     * (inclusionFindings()).
     */
    bool respectsInclusion() const;

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

// ---------------------------------------------------------------
// The topology rulebook: the paper's rules for sharing groups,
// written once. Every door a partition enters a level through asks
// it, and reacts to its findings in its own way (fatal(), a
// CkptError, an invariant report).

/** Group-shape rules in force (derived from MorphConfig). */
enum class ShapeRule : std::uint8_t {
    /** Section 5.5 non-neighbor mode: any slice sets. */
    Any,
    /** Section 5.5 arbitrary-size mode: contiguous ranges. */
    Contiguous,
    /** Default mode: aligned power-of-two ranges. */
    AlignedPow2,
};

/**
 * Classes of structural invariant. The rulebook finds the first
 * three; InvariantChecker adds the line-accounting two.
 */
enum class InvariantKind : std::uint8_t {
    /** A level's partition does not cover [0, n) exactly once. */
    PartitionValidity,
    /** A group's shape is illegal for the configured mode. */
    GroupShape,
    /** An L2 group straddles more than one L3 group. */
    Inclusion,
    /** Valid lines appeared from nowhere across a reconfiguration. */
    LineConservation,
    /** A slice reports more valid lines than it has ways. */
    SliceOverflow,
};

/** Number of InvariantKind values (for counter arrays). */
inline constexpr std::size_t numInvariantKinds = 5;

/** Short name of an invariant class ("partition", "inclusion", ...). */
const char *invariantKindName(InvariantKind kind);

/** One detected violation. */
struct Violation
{
    InvariantKind kind;
    /** Human-readable description with the offending values. */
    std::string message;
};

/**
 * Partition rule: every slice of [0, num_slices) appears in exactly
 * one group, no group is empty, and each group's members ascend.
 * Appends PartitionValidity findings, naming `level`.
 */
void partitionFindings(const char *level, const Partition &partition,
                       std::uint32_t num_slices,
                       std::vector<Violation> &out);

/** Shape rule: appends a GroupShape finding per illegal group. */
void shapeFindings(const char *level, const Partition &partition,
                   ShapeRule rule, std::vector<Violation> &out);

/**
 * Inclusion rule: appends an Inclusion finding per L2 group that
 * straddles L3 groups (over the slices the partitions cover).
 */
void inclusionFindings(const Topology &topology,
                       std::vector<Violation> &out);

/**
 * Every rule over a whole topology, in a fixed order: the L2 and L3
 * partitions, the L2 and L3 shapes, then inclusion.
 */
std::vector<Violation> topologyFindings(const Topology &topology,
                                        ShapeRule rule);

} // namespace morphcache

#endif // MORPHCACHE_HIERARCHY_TOPOLOGY_HH
