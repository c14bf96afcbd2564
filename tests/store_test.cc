/**
 * @file
 * The set-major slice store against the slice-major reference it
 * replaced, and the value semantics of the objects that own stores.
 *
 *  - Lockstep: every slice of a SliceStore is driven beside its own
 *    ReferenceSlice (tests/slice_reference.hh) through seeded
 *    sequences of fill, touch, probe, markDirtyIfPresent,
 *    invalidateAt, invalidate and setStampAt, for 4- to 64-way
 *    geometries with 1 and 16 slices. Every probe result, victim,
 *    eviction record and the checkpoint bytes must agree, also
 *    after loadState round trips into a store holding other lines.
 *    The address pools force fingerprint collisions (equal
 *    fingerprint bytes, different tags in one set) and stale tags
 *    left in invalid ways.
 *
 *  - Copy: a Hierarchy copied mid-run and driven on is independent
 *    of the original, byte for byte.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/serial.hh"
#include "hierarchy/hierarchy.hh"
#include "mem/slice.hh"
#include "sim/config.hh"
#include "slice_reference.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

/** (assoc, slices, policy) of one lockstep run. */
using StoreShape = std::tuple<std::uint32_t, std::uint32_t, ReplPolicy>;

constexpr std::uint64_t kSets = 8;

std::vector<std::uint8_t>
sliceBytes(const SliceStore &store, std::uint32_t slice)
{
    CkptWriter w;
    store.saveState(w, static_cast<SliceId>(slice));
    return w.buffer();
}

std::vector<std::uint8_t>
referenceBytes(const ReferenceSlice &ref)
{
    CkptWriter w;
    ref.saveState(w);
    return w.buffer();
}

/**
 * Line addresses of one set: 2 x assoc ordinary lines, then groups
 * of lines that share a fingerprint byte but not a tag.
 */
std::vector<Addr>
addressPool(std::uint64_t set, std::uint32_t assoc)
{
    std::vector<Addr> pool;
    for (std::uint64_t k = 0; k < 2 * assoc; ++k)
        pool.push_back(set + k * kSets);
    std::map<std::uint8_t, std::vector<Addr>> by_fingerprint;
    std::size_t collisions = 0;
    for (std::uint64_t k = 2 * assoc; collisions < 4; ++k) {
        const Addr line = set + k * kSets;
        auto &same = by_fingerprint[SliceStore::fingerprint(line)];
        same.push_back(line);
        if (same.size() == 3) {
            pool.insert(pool.end(), same.begin(), same.end());
            ++collisions;
        }
    }
    return pool;
}

::testing::AssertionResult
sameEviction(const Eviction &got, const Eviction &want)
{
    if (got.valid == want.valid && got.lineAddr == want.lineAddr &&
        got.dirty == want.dirty && got.reused == want.reused)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "eviction (" << got.valid << ", " << got.lineAddr << ", "
           << got.dirty << ", " << got.reused << ") != (" << want.valid
           << ", " << want.lineAddr << ", " << want.dirty << ", "
           << want.reused << ")";
}

class StoreLockstep : public ::testing::TestWithParam<StoreShape>
{
};

TEST_P(StoreLockstep, MatchesSliceMajorReference)
{
    const auto [assoc, slices, policy] = GetParam();
    const CacheGeometry geom{kSets * assoc * 64, assoc, 64};
    ASSERT_TRUE(geom.valid());
    ASSERT_EQ(geom.numSets(), kSets);

    auto store = std::make_unique<SliceStore>(slices, geom, policy);
    std::vector<ReferenceSlice> refs(slices, ReferenceSlice(geom, policy));
    std::vector<std::vector<Addr>> pools;
    for (std::uint64_t set = 0; set < kSets; ++set)
        pools.push_back(addressPool(set, assoc));

    Rng rng(assoc * 131 + slices * 7 +
            (policy == ReplPolicy::TreePLRU ? 1 : 0));
    std::uint64_t stamp = 0;
    std::uint64_t collision_probes = 0;
    std::uint64_t stale_probes = 0;

    for (int op = 0; op < 3000; ++op) {
        const auto id = static_cast<SliceId>(rng.below(slices));
        const CacheSlice view = store->slice(id);
        ReferenceSlice &ref = refs[id];
        const std::uint64_t set = rng.below(kSets);
        const Addr addr = pools[set][rng.below(pools[set].size())];
        ASSERT_EQ(view.setIndex(addr), set);

        // What the probe below has to see past: valid ways with the
        // same fingerprint but another tag, invalid ways still
        // holding this tag.
        for (std::uint32_t way = 0; way < assoc; ++way) {
            const Addr held = view.lineAddrAt(set, way);
            if (!view.validAt(set, way))
                stale_probes += held == addr;
            else if (held != addr && SliceStore::fingerprint(held) ==
                                         SliceStore::fingerprint(addr))
                ++collision_probes;
        }
        const std::uint32_t way = view.probe(addr);
        ASSERT_EQ(way, ref.probe(addr).value_or(assoc)) << "op " << op;
        ASSERT_EQ(view.victimWay(set), ref.victimWay(set)) << "op " << op;
        ASSERT_EQ(view.firstInvalidWay(set), ref.firstInvalidWay(set));

        const std::uint64_t draw = rng.below(100);
        if (draw < 35) {
            // Fill at the victim, or anywhere: a fill at a random way
            // can leave one address in two ways (first match wins).
            const std::uint32_t target = draw < 25
                                             ? view.victimWay(set)
                                             : static_cast<std::uint32_t>(
                                                   rng.below(assoc));
            const bool dirty = rng.below(2) == 1;
            ++stamp;
            ASSERT_TRUE(sameEviction(
                view.fill(set, target, addr, dirty, stamp),
                ref.fill(set, target, addr, dirty, stamp)))
                << "op " << op;
        } else if (draw < 55) {
            if (way != assoc) {
                view.touch(set, way, ++stamp);
                ref.touch(set, way, stamp);
            }
        } else if (draw < 65) {
            ASSERT_EQ(view.markDirtyIfPresent(addr),
                      ref.markDirtyIfPresent(addr));
        } else if (draw < 75) {
            if (way != assoc) {
                ASSERT_TRUE(sameEviction(view.invalidateAt(set, way),
                                         ref.invalidateAt(set, way)))
                    << "op " << op;
            }
        } else if (draw < 85) {
            ASSERT_TRUE(sameEviction(view.invalidate(addr),
                                     ref.invalidate(addr)))
                << "op " << op;
        } else {
            // Old and repeated stamps: victim ties and reorders.
            const auto at = static_cast<std::uint32_t>(rng.below(assoc));
            const std::uint64_t old = rng.below(stamp + 1);
            view.setStampAt(set, at, old);
            ref.setStampAt(set, at, old);
        }
        ASSERT_EQ(view.probe(addr), ref.probe(addr).value_or(assoc))
            << "op " << op;
        ASSERT_EQ(view.validLineCount(), ref.validLineCount());
        ASSERT_EQ(sliceBytes(*store, id), referenceBytes(ref))
            << "op " << op;

        if (op % 16 == 15) {
            // A write past one slice's rows shows up in another's.
            for (std::uint32_t s = 0; s < slices; ++s)
                ASSERT_EQ(sliceBytes(*store, s), referenceBytes(refs[s]))
                    << "op " << op << " slice " << s;
        }
        if (op % 500 == 499) {
            // Round trip into a store holding other lines, whose
            // stale fingerprints loadState must overwrite.
            CkptWriter w;
            for (std::uint32_t s = 0; s < slices; ++s)
                store->saveState(w, static_cast<SliceId>(s));
            auto fresh = std::make_unique<SliceStore>(slices, geom, policy);
            for (std::uint32_t s = 0; s < slices; ++s)
                for (std::uint64_t k = 0; k < kSets * assoc; ++k)
                    fresh->slice(static_cast<SliceId>(s))
                        .fill(k % kSets, static_cast<std::uint32_t>(k / kSets),
                              k * 977 + s, true, k);
            CkptReader r("store", w.buffer());
            for (std::uint32_t s = 0; s < slices; ++s)
                fresh->loadState(r, static_cast<SliceId>(s));
            ASSERT_EQ(r.remaining(), 0u);
            store = std::move(fresh);
            for (std::uint32_t s = 0; s < slices; ++s)
                ASSERT_EQ(sliceBytes(*store, s), referenceBytes(refs[s]));
        }
    }
    EXPECT_GT(collision_probes, 0u);
    EXPECT_GT(stale_probes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StoreLockstep,
    ::testing::Values(StoreShape{4, 1, ReplPolicy::LRU},
                      StoreShape{4, 16, ReplPolicy::LRU},
                      StoreShape{8, 1, ReplPolicy::LRU},
                      StoreShape{8, 16, ReplPolicy::LRU},
                      StoreShape{12, 1, ReplPolicy::LRU},
                      StoreShape{12, 16, ReplPolicy::LRU},
                      StoreShape{16, 1, ReplPolicy::LRU},
                      StoreShape{16, 16, ReplPolicy::LRU},
                      StoreShape{64, 1, ReplPolicy::LRU},
                      StoreShape{64, 16, ReplPolicy::LRU},
                      StoreShape{4, 16, ReplPolicy::TreePLRU},
                      StoreShape{16, 16, ReplPolicy::TreePLRU}),
    [](const ::testing::TestParamInfo<StoreShape> &shape) {
        return std::to_string(std::get<0>(shape.param)) + "way_" +
               std::to_string(std::get<1>(shape.param)) + "slices" +
               (std::get<2>(shape.param) == ReplPolicy::TreePLRU ? "_plru"
                                                                 : "");
    });

std::vector<std::uint8_t>
hierarchyBytes(const Hierarchy &h)
{
    CkptWriter w;
    h.saveState(w);
    return w.buffer();
}

TEST(StoreCopy, CopiedHierarchyIsIndependent)
{
    const HierarchyParams params = fastScaleHierarchy(16);
    MixWorkload workload(mixByName("MIX 01"), generatorFor(params), 42);
    Hierarchy original(params);
    original.reconfigure(Topology::symmetric(16, 4, 4, 1));
    const auto drive = [](Hierarchy &h, Workload &w, Cycle start) {
        Cycle now = start;
        for (int i = 0; i < 2000; ++i)
            for (std::uint32_t c = 0; c < 16; ++c)
                h.access(w.next(static_cast<CoreId>(c)), now += 3);
    };
    drive(original, workload, 0);

    const std::vector<std::uint8_t> before = hierarchyBytes(original);
    Hierarchy copy = original;
    const std::unique_ptr<Workload> copy_workload = workload.clone();
    copy.reconfigure(Topology::symmetric(16, 16, 1, 1));
    drive(copy, *copy_workload, 100000);

    EXPECT_EQ(hierarchyBytes(original), before);
    EXPECT_NE(hierarchyBytes(copy), before);
    // Views made on the copy read the copy's store: an L1 line only
    // the copy fetched is not in the original's L1.
    std::uint64_t copy_only = 0;
    for (std::uint32_t c = 0; c < 16; ++c) {
        const auto core = static_cast<CoreId>(c);
        const CacheSlice l1 = copy.l1(core);
        for (std::uint64_t set = 0; set < l1.numSets(); ++set)
            for (std::uint32_t way = 0; way < l1.assoc(); ++way)
                if (l1.validAt(set, way) &&
                    !original.l1(core).contains(l1.lineAddrAt(set, way)))
                    ++copy_only;
    }
    EXPECT_GT(copy_only, 0u);

    // Driven the same way, the original reaches the copy's bytes.
    original.reconfigure(Topology::symmetric(16, 16, 1, 1));
    drive(original, workload, 100000);
    EXPECT_EQ(hierarchyBytes(original), hierarchyBytes(copy));
}

} // namespace
} // namespace morphcache
