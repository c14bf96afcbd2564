/**
 * @file
 * Tests for the topology rulebook (src/hierarchy/topology.cc): its
 * findings against the invariant checker's former rule code, kept
 * here as the reference, and the rejection at every door a
 * partition enters a level through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "check/invariant.hh"
#include "common/bitops.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "hierarchy/hierarchy.hh"

namespace morphcache {
namespace {

// ---------------------------------------------------------------
// Reference: InvariantChecker's partition, shape and inclusion code
// as it stood before the rulebook took it over.

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return std::string(buf);
}

void
add(std::vector<Violation> &out, InvariantKind kind,
    std::string message)
{
    out.push_back(Violation{kind, std::move(message)});
}

void
refCheckPartition(const char *level, const Partition &partition,
                  std::uint32_t num_slices, std::vector<Violation> &out)
{
    std::vector<std::uint32_t> seen(num_slices, 0);
    std::uint64_t members = 0;
    for (std::size_t g = 0; g < partition.size(); ++g) {
        const auto &group = partition[g];
        if (group.empty()) {
            add(out, InvariantKind::PartitionValidity,
                format("%s group %zu is empty", level, g));
            continue;
        }
        if (!std::is_sorted(group.begin(), group.end())) {
            add(out, InvariantKind::PartitionValidity,
                format("%s group %zu members out of order", level,
                       g));
        }
        for (SliceId member : group) {
            ++members;
            if (member >= num_slices) {
                add(out, InvariantKind::PartitionValidity,
                    format("%s group %zu names slice %u outside "
                           "[0, %u)",
                           level, g, member, num_slices));
            } else if (++seen[member] == 2) {
                add(out, InvariantKind::PartitionValidity,
                    format("%s slice %u appears in more than one "
                           "group",
                           level, member));
            }
        }
    }
    if (members != num_slices) {
        for (std::uint32_t s = 0; s < num_slices; ++s) {
            if (seen[s] == 0) {
                add(out, InvariantKind::PartitionValidity,
                    format("%s slice %u missing from the partition",
                           level, s));
            }
        }
    }
}

void
refCheckGroupShapes(const char *level, const Partition &partition,
                    ShapeRule rule, std::vector<Violation> &out)
{
    if (rule == ShapeRule::Any)
        return;
    for (std::size_t g = 0; g < partition.size(); ++g) {
        const auto &group = partition[g];
        if (group.empty())
            continue;
        const bool contiguous =
            static_cast<std::size_t>(group.back() - group.front()) +
                1 ==
            group.size();
        if (!contiguous) {
            add(out, InvariantKind::GroupShape,
                format("%s group %zu [%u..%u] is not a contiguous "
                       "range",
                       level, g, group.front(), group.back()));
            continue;
        }
        if (rule == ShapeRule::AlignedPow2) {
            const auto size =
                static_cast<std::uint32_t>(group.size());
            if (!isPowerOf2(size) || group.front() % size != 0) {
                add(out, InvariantKind::GroupShape,
                    format("%s group %zu (base %u, size %u) is not "
                           "an aligned power-of-two range",
                           level, g, group.front(), size));
            }
        }
    }
}

std::vector<Violation>
refCheckTopology(const Topology &topology, ShapeRule rule)
{
    std::vector<Violation> out;
    refCheckPartition("L2", topology.l2, topology.numCores, out);
    refCheckPartition("L3", topology.l3, topology.numCores, out);
    refCheckGroupShapes("L2", topology.l2, rule, out);
    refCheckGroupShapes("L3", topology.l3, rule, out);
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
                    format("L2 group %zu straddles L3 groups (slice "
                           "%u vs slice %u)",
                           g, group.front(), member));
                break;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Random topologies: legal shapes, then seeded defects.

/** How a random partition shapes its groups. */
enum class Style {
    /** Aligned power-of-two ranges (the default mode). */
    AlignedPow2,
    /** Contiguous runs of any size and base. */
    Runs,
    /** Any slice sets, members ascending. */
    Scattered,
};

/**
 * Split the ascending slices `pool` into groups of `style`,
 * appending them to `out`. AlignedPow2 needs an aligned
 * power-of-two pool.
 */
void
splitInto(Rng &rng, const std::vector<SliceId> &pool, Style style,
          Partition &out)
{
    if (style == Style::AlignedPow2) {
        if (pool.size() == 1 || rng.below(3) == 0) {
            out.push_back(pool);
            return;
        }
        const std::size_t half = pool.size() / 2;
        splitInto(rng, {pool.begin(), pool.begin() + half}, style, out);
        splitInto(rng, {pool.begin() + half, pool.end()}, style, out);
        return;
    }
    std::vector<SliceId> order(pool);
    if (style == Style::Scattered) {
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (std::size_t at = 0; at < order.size();) {
        const std::size_t size = 1 + rng.below(order.size() - at);
        std::vector<SliceId> group(order.begin() + at,
                                   order.begin() + at + size);
        std::sort(group.begin(), group.end());
        out.push_back(std::move(group));
        at += size;
    }
}

/** A legal topology of `style` (L2 groups refine L3 groups). */
Topology
legalTopology(Rng &rng, std::uint32_t cores, Style style)
{
    Topology topo;
    topo.numCores = cores;
    std::vector<SliceId> all(cores);
    for (std::uint32_t s = 0; s < cores; ++s)
        all[s] = static_cast<SliceId>(s);
    splitInto(rng, all, style, topo.l3);
    for (const auto &group : topo.l3)
        splitInto(rng, group, style, topo.l2);
    return topo;
}

/** Defects a random topology can carry. */
enum class Defect {
    EmptyGroup,
    OutOfRange,
    Duplicate,
    Missing,
    OutOfOrder,
    Straddle,
};
constexpr std::uint64_t kNumDefects = 6;

/** Apply `defect` to a random level or group of `topo`. */
void
applyDefect(Rng &rng, Topology &topo, Defect defect)
{
    if (defect == Defect::Straddle) {
        // Re-draw L2 without regard to L3.
        topo.l2 = legalTopology(rng, topo.numCores, Style::Runs).l3;
        return;
    }
    Partition &level = rng.below(2) == 0 ? topo.l2 : topo.l3;
    if (defect == Defect::EmptyGroup) {
        level.insert(level.begin() + static_cast<std::ptrdiff_t>(
                                         rng.below(level.size() + 1)),
                     std::vector<SliceId>{});
        return;
    }
    auto &group = level[rng.below(level.size())];
    switch (defect) {
      case Defect::OutOfRange:
        group.push_back(
            static_cast<SliceId>(topo.numCores + rng.below(3)));
        break;
      case Defect::Duplicate:
        group.push_back(static_cast<SliceId>(rng.below(topo.numCores)));
        std::sort(group.begin(), group.end());
        break;
      case Defect::Missing:
        if (!group.empty())
            group.erase(group.begin() + static_cast<std::ptrdiff_t>(
                                            rng.below(group.size())));
        break;
      case Defect::OutOfOrder:
        std::reverse(group.begin(), group.end());
        break;
      default:
        break;
    }
}

/** The defect classes a finding can report, for coverage. */
const char *const kFindingClasses[] = {
    "empty group",     "slice out of range", "duplicate slice",
    "missing slice",   "out-of-order members", "non-contiguous group",
    "misaligned group", "non-power-of-two group", "inclusion straddle",
};
constexpr std::size_t kNumFindingClasses =
    sizeof(kFindingClasses) / sizeof(kFindingClasses[0]);

/** Index into kFindingClasses of one finding's message. */
std::size_t
findingClass(const std::string &message)
{
    const char *const markers[] = {
        "is empty",     "outside",          "more than one group",
        "missing from", "out of order",     "not a contiguous",
    };
    for (std::size_t c = 0; c < std::size(markers); ++c) {
        if (message.find(markers[c]) != std::string::npos)
            return c;
    }
    unsigned base = 0;
    unsigned size = 0;
    const std::size_t at = message.find("(base ");
    if (at != std::string::npos &&
        std::sscanf(message.c_str() + at, "(base %u, size %u)", &base,
                    &size) == 2)
        return isPowerOf2(size) ? 6 : 7;
    EXPECT_NE(message.find("straddles"), std::string::npos) << message;
    return 8;
}

TEST(Rulebook, MatchesTheCheckerItReplaced)
{
    Rng rng(29);
    constexpr int kTrials = 3000;
    std::vector<std::uint64_t> seen(kNumFindingClasses, 0);
    std::uint64_t clean = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const std::uint32_t cores =
            trial % 5 == 0 ? 70u : 1u << rng.below(6);
        const auto style = static_cast<Style>(rng.below(3));
        Topology topo = legalTopology(
            rng, cores,
            style == Style::AlignedPow2 && !isPowerOf2(cores) ? Style::Runs
                                                                : style);
        for (std::uint64_t n = rng.below(4); n > 0; --n)
            applyDefect(rng, topo, static_cast<Defect>(rng.below(kNumDefects)));
        for (ShapeRule rule : {ShapeRule::Any, ShapeRule::Contiguous,
                               ShapeRule::AlignedPow2}) {
            const std::vector<Violation> want =
                refCheckTopology(topo, rule);
            const std::vector<Violation> got = topologyFindings(topo, rule);
            ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(got[i].kind, want[i].kind)
                    << "trial " << trial << " finding " << i;
                ASSERT_EQ(got[i].message, want[i].message)
                    << "trial " << trial << " finding " << i;
                ++seen[findingClass(got[i].message)];
            }
            clean += want.empty();
        }
    }
    // Every defect class was drawn, and legal topologies pass.
    for (std::size_t c = 0; c < kNumFindingClasses; ++c)
        EXPECT_GT(seen[c], 0u) << kFindingClasses[c];
    EXPECT_GT(clean, 0u);
}

TEST(Rulebook, LegalShapesPassTheirRule)
{
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint32_t cores = 1u << rng.below(6);
        EXPECT_TRUE(topologyFindings(
                        legalTopology(rng, cores, Style::AlignedPow2),
                        ShapeRule::AlignedPow2)
                        .empty());
        EXPECT_TRUE(topologyFindings(legalTopology(rng, cores, Style::Runs),
                                     ShapeRule::Contiguous)
                        .empty());
        EXPECT_TRUE(
            topologyFindings(legalTopology(rng, cores, Style::Scattered),
                             ShapeRule::Any)
                .empty());
    }
}

// ---------------------------------------------------------------
// Every door rejects a group whose members are out of order.

/** Four slices; the first group lists its members out of order. */
const Partition kUnordered = {{1, 0}, {2}, {3}};
const Partition kOrdered = {{0, 1}, {2}, {3}};

HierarchyParams
smallParams()
{
    HierarchyParams params = HierarchyParams::defaultParams(4);
    params.l1Geom = CacheGeometry{1024, 2, 64};
    params.l2.sliceGeom = CacheGeometry{4096, 4, 64};
    params.l3.sliceGeom = CacheGeometry{16384, 8, 64};
    return params;
}

std::vector<std::uint8_t>
partitionBytes(const Partition &partition)
{
    CkptWriter w;
    checkpointPartition(w, partition, 4);
    return w.buffer();
}

/** `head` followed by `bytes` past its first `skip` bytes. */
std::vector<std::uint8_t>
splice(std::vector<std::uint8_t> head,
       const std::vector<std::uint8_t> &bytes, std::size_t skip)
{
    head.insert(head.end(), bytes.begin() + static_cast<std::ptrdiff_t>(skip),
                bytes.end());
    return head;
}

TEST(RulebookDoorDeathTest, ConfigureRejectsUnorderedMembers)
{
    CacheLevelModel level(smallParams().l2);
    level.configure(kOrdered);
    EXPECT_DEATH(level.configure(kUnordered), "out of order");
}

TEST(RulebookDoorDeathTest, ReconfigureRejectsUnorderedMembers)
{
    Hierarchy h(smallParams());
    Topology topo;
    topo.numCores = 4;
    topo.l2 = kUnordered;
    topo.l3 = kOrdered;
    EXPECT_DEATH(h.reconfigure(topo), "partition rule.*out of order");
}

TEST(RulebookDoor, PartitionLoadersRejectUnorderedMembers)
{
    const auto unordered = partitionBytes(kUnordered);
    CkptReader r("partition", unordered);
    Partition loaded;
    EXPECT_THROW(checkpointPartition(r, loaded, 4), CkptError);

    // The level's loader.
    CacheLevelModel level(smallParams().l2);
    level.configure(kOrdered);
    CkptWriter lw;
    level.saveState(lw);
    const auto level_bytes = splice(partitionBytes(kUnordered),
                                    lw.buffer(),
                                    partitionBytes(kOrdered).size());
    CacheLevelModel fresh(smallParams().l2);
    CkptReader lr("level", level_bytes);
    EXPECT_THROW(fresh.loadState(lr), CkptError);

    // The hierarchy's topology loader.
    Hierarchy h(smallParams());
    Topology merged;
    merged.numCores = 4;
    merged.l2 = kOrdered;
    merged.l3 = kOrdered;
    h.reconfigure(merged);
    CkptWriter hw;
    h.saveState(hw);
    const auto hier_bytes = splice(partitionBytes(kUnordered), hw.buffer(),
                                   partitionBytes(kOrdered).size());
    Hierarchy target(smallParams());
    CkptReader hr("hierarchy", hier_bytes);
    EXPECT_THROW(target.loadState(hr), CkptError);
}

TEST(RulebookDoor, CheckerReportsUnorderedMembers)
{
    const InvariantChecker checker(CheckPolicy::Log);
    Topology topo;
    topo.numCores = 4;
    topo.l2 = kOrdered;
    topo.l3 = kUnordered;
    const std::vector<Violation> found =
        checker.checkTopology(topo, ShapeRule::Any);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].kind, InvariantKind::PartitionValidity);
    EXPECT_EQ(found[0].message, "L3 group 0 members out of order");
}

// ---------------------------------------------------------------
// The hierarchy's checkpoint: its topology against its levels.

std::vector<std::uint8_t>
topologyBytes(const Topology &topo)
{
    CkptWriter w;
    checkpointPartition(w, topo.l2, topo.numCores);
    checkpointPartition(w, topo.l3, topo.numCores);
    return w.buffer();
}

std::vector<std::uint8_t>
hierarchyBytes(const Hierarchy &h)
{
    CkptWriter w;
    h.saveState(w);
    return w.buffer();
}

/** The CkptError message of loading `bytes` into a fresh hierarchy. */
std::string
loadError(const std::vector<std::uint8_t> &bytes)
{
    Hierarchy target(smallParams());
    CkptReader r("hierarchy", bytes);
    try {
        target.loadState(r);
    } catch (const CkptError &err) {
        return err.what();
    }
    return "";
}

TEST(HierarchyCkpt, TopologyMustMatchTheLevels)
{
    Hierarchy merged(smallParams());
    Topology topo;
    topo.numCores = 4;
    topo.l2 = kOrdered;
    topo.l3 = {{0, 1}, {2, 3}};
    merged.reconfigure(topo);
    const Hierarchy fresh(smallParams());

    // Each hierarchy's own bytes load.
    EXPECT_EQ(loadError(hierarchyBytes(merged)), "");
    EXPECT_EQ(loadError(hierarchyBytes(fresh)), "");

    // The merged topology over the private hierarchy's levels.
    const std::string what = loadError(
        splice(topologyBytes(topo), hierarchyBytes(fresh),
               topologyBytes(fresh.topology()).size()));
    EXPECT_NE(what.find("differs from its levels"), std::string::npos)
        << what;
}

TEST(HierarchyCkpt, TopologyMustRespectInclusion)
{
    // Levels configured behind the hierarchy's back: a merged L2
    // over private L3s, which reconfigure() would refuse.
    Hierarchy h(smallParams());
    h.l2().configure(kOrdered);
    Topology straddle;
    straddle.numCores = 4;
    straddle.l2 = kOrdered;
    straddle.l3 = allPrivate(4);
    const std::string what = loadError(
        splice(topologyBytes(straddle), hierarchyBytes(h),
               topologyBytes(h.topology()).size()));
    EXPECT_NE(what.find("inclusion"), std::string::npos) << what;
    EXPECT_NE(what.find("straddles"), std::string::npos) << what;
}

} // namespace
} // namespace morphcache
