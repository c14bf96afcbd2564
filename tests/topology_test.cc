/**
 * @file
 * Unit tests for topology descriptors: partitions, (x:y:z)
 * notation, inclusion feasibility, symmetry detection.
 */

#include <gtest/gtest.h>

#include "hierarchy/topology.hh"

namespace morphcache {
namespace {

/** True when every group of `p` is an aligned power-of-two range. */
bool
isAlignedPow2(const Partition &p)
{
    std::vector<Violation> findings;
    shapeFindings("L2", p, ShapeRule::AlignedPow2, findings);
    return findings.empty();
}

TEST(Partition, AllPrivate)
{
    const Partition p = allPrivate(16);
    EXPECT_EQ(p.size(), 16u);
    validatePartition(p, 16);
    EXPECT_TRUE(isAlignedPow2(p));
}

TEST(Partition, AllShared)
{
    const Partition p = allShared(16);
    EXPECT_EQ(p.size(), 1u);
    EXPECT_EQ(p[0].size(), 16u);
    validatePartition(p, 16);
    EXPECT_TRUE(isAlignedPow2(p));
}

TEST(Partition, UniformGroups)
{
    const Partition p = uniformGroups(16, 4);
    EXPECT_EQ(p.size(), 4u);
    for (const auto &g : p)
        EXPECT_EQ(g.size(), 4u);
    EXPECT_EQ(p[1][0], 4);
    validatePartition(p, 16);
}

TEST(Partition, ContiguityDetection)
{
    EXPECT_TRUE(isContiguous({{0, 1}, {2, 3}}));
    EXPECT_FALSE(isContiguous({{0, 2}, {1, 3}}));
}

TEST(Partition, AlignmentDetection)
{
    EXPECT_TRUE(isAlignedPow2({{0, 1}, {2, 3}}));
    EXPECT_FALSE(isAlignedPow2({{0}, {1, 2}, {3}}));   // misaligned
    EXPECT_FALSE(isAlignedPow2({{0, 1, 2}, {3}}));     // non-pow2
}

TEST(Partition, GroupOfSliceLookup)
{
    const Partition p = uniformGroups(8, 2);
    const auto map = groupOfSlice(p, 8);
    EXPECT_EQ(map[0], 0u);
    EXPECT_EQ(map[1], 0u);
    EXPECT_EQ(map[6], 3u);
}

TEST(Topology, SymmetricNotation)
{
    const Topology t = Topology::symmetric(16, 4, 4, 1);
    EXPECT_EQ(t.l2.size(), 4u);   // 4 L2 groups of 4
    EXPECT_EQ(t.l3.size(), 1u);   // 1 L3 group of 16
    EXPECT_EQ(t.name(), "(4:4:1)");
    EXPECT_TRUE(t.isSymmetric());
    EXPECT_TRUE(t.respectsInclusion());
}

TEST(Topology, PaperTopologyNames)
{
    EXPECT_EQ(Topology::symmetric(16, 16, 1, 1).name(), "(16:1:1)");
    EXPECT_EQ(Topology::symmetric(16, 1, 1, 16).name(), "(1:1:16)");
    EXPECT_EQ(Topology::symmetric(16, 1, 16, 1).name(), "(1:16:1)");
    EXPECT_EQ(Topology::symmetric(16, 8, 2, 1).name(), "(8:2:1)");
    EXPECT_EQ(Topology::symmetric(16, 2, 2, 4).name(), "(2:2:4)");
}

TEST(Topology, AllPrivateIsPrivateEverywhere)
{
    const Topology t = Topology::allPrivateTopology(16);
    EXPECT_EQ(t.name(), "(1:1:16)");
    EXPECT_TRUE(t.respectsInclusion());
}

TEST(Topology, InclusionViolationDetected)
{
    // L2 group {0,1} straddles two private L3 groups: a merged L2
    // would outsize its backing L3 slice.
    Topology t;
    t.numCores = 4;
    t.l2 = {{0, 1}, {2}, {3}};
    t.l3 = allPrivate(4);
    EXPECT_FALSE(t.respectsInclusion());

    // With the L3s merged too, it is fine.
    t.l3 = {{0, 1}, {2}, {3}};
    EXPECT_TRUE(t.respectsInclusion());
}

TEST(Topology, AsymmetricDetected)
{
    Topology t;
    t.numCores = 8;
    t.l2 = {{0, 1}, {2}, {3}, {4, 5, 6, 7}};
    t.l3 = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    EXPECT_FALSE(t.isSymmetric());
    EXPECT_TRUE(t.respectsInclusion());
    EXPECT_NE(t.name().find("asym"), std::string::npos);
}

TEST(Topology, EightCoreShapes)
{
    const Topology t = Topology::symmetric(8, 2, 2, 2);
    EXPECT_EQ(t.l2.size(), 4u);
    EXPECT_EQ(t.l3.size(), 2u);
    EXPECT_TRUE(t.respectsInclusion());
    EXPECT_EQ(t.name(), "(2:2:2)");
}

/** Every (x:y:z) factorization of 16 must respect inclusion. */
class SymmetricSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SymmetricSweep, InclusionHolds)
{
    const auto [x, y, z] = GetParam();
    const Topology t = Topology::symmetric(
        16, static_cast<std::uint32_t>(x),
        static_cast<std::uint32_t>(y), static_cast<std::uint32_t>(z));
    EXPECT_TRUE(t.respectsInclusion());
    EXPECT_TRUE(t.isSymmetric());
    EXPECT_TRUE(isAlignedPow2(t.l2) && isAlignedPow2(t.l3));
}

INSTANTIATE_TEST_SUITE_P(
    AllFactorizations, SymmetricSweep,
    ::testing::Values(std::tuple{1, 1, 16}, std::tuple{1, 2, 8},
                      std::tuple{1, 4, 4}, std::tuple{1, 8, 2},
                      std::tuple{1, 16, 1}, std::tuple{2, 1, 8},
                      std::tuple{2, 2, 4}, std::tuple{2, 4, 2},
                      std::tuple{2, 8, 1}, std::tuple{4, 1, 4},
                      std::tuple{4, 2, 2}, std::tuple{4, 4, 1},
                      std::tuple{8, 1, 2}, std::tuple{8, 2, 1},
                      std::tuple{16, 1, 1}));

} // namespace
} // namespace morphcache
