/**
 * @file
 * The set-major slice store against the slice-major reference it
 * replaced, the level's group walks against the per-member probe
 * loops they replaced, and the value semantics of the objects that
 * own stores.
 *
 *  - Store lockstep: every slice of a SliceStore is driven beside its
 *    own ReferenceSlice (tests/slice_reference.hh) through seeded
 *    sequences of fill, touch, probe, markDirtyIfPresent,
 *    invalidateAt, invalidate and setStampAt, for 1- to 64-way
 *    geometries with 1, 16 and 70 slices, under LRU and under
 *    tree-PLRU (whose reference walks its tree one level at a
 *    time; the 64-way tree reaches node 63). Every probe result,
 *    victim, eviction record and the checkpoint bytes must agree,
 *    also after loadState round trips into a store holding other
 *    lines, and after every operation the fingerprint matcher must
 *    cover every slice holding the line, on random spans and on one
 *    whose last window reads the array's padding. The address pools
 *    force fingerprint collisions (equal fingerprint bytes,
 *    different tags in one set) and stale tags left in invalid ways.
 *
 *  - Level lockstep: seeded operations on a CacheLevelModel under
 *    random partitions (contiguous or scattered groups, members
 *    ascending) compare every group walk's result and the touched
 *    set's ways with what probing each member in order predicts.
 *
 *  - Copy: a Hierarchy copied mid-run and driven on is independent
 *    of the original, byte for byte.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
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

/**
 * The fingerprint matcher over [lo, lo + span) for `addr`: bit k is
 * set iff a way of slice lo + k in addr's set stores a line with
 * addr's fingerprint, no bit at or past `span` is set, and every
 * slice whose reference holds the line is in the mask.
 */
::testing::AssertionResult
matcherCovers(const SliceStore &store,
              const std::vector<ReferenceSlice> &refs, Addr addr,
              std::uint32_t lo, std::uint32_t span)
{
    const std::uint64_t mask =
        store.matchSlices(addr, static_cast<SliceId>(lo), span);
    if (span < 64 && (mask >> span) != 0)
        return ::testing::AssertionFailure()
               << "bits past span " << span << " in mask " << mask;
    const std::uint8_t fp = SliceStore::fingerprint(addr);
    for (std::uint32_t k = 0; k < span; ++k) {
        const ConstCacheSlice view = store.slice(static_cast<SliceId>(lo + k));
        const std::uint64_t set = view.setIndex(addr);
        bool stored = false;
        for (std::uint32_t way = 0; way < view.assoc(); ++way)
            stored = stored ||
                     SliceStore::fingerprint(view.lineAddrAt(set, way)) == fp;
        const bool bit = (mask >> k) & 1;
        if (bit != stored || (refs[lo + k].probe(addr) && !bit))
            return ::testing::AssertionFailure()
                   << "slice " << lo + k << " of [" << lo << ", "
                   << lo + span << ") for line " << addr << ": bit " << bit
                   << ", fingerprint stored " << stored << ", held "
                   << refs[lo + k].probe(addr).has_value();
    }
    return ::testing::AssertionSuccess();
}

/**
 * forEachCandidate over every slice visits, in ascending order, each
 * slice whose reference holds `addr`, and with more than one slice
 * exactly the matcher's candidates, 64 slices at a time.
 */
::testing::AssertionResult
candidatesCover(const SliceStore &store,
                const std::vector<ReferenceSlice> &refs, Addr addr)
{
    const auto slices = static_cast<std::uint32_t>(refs.size());
    std::vector<SliceId> visited;
    store.forEachCandidate(addr, 0, slices, [&](SliceId s) {
        visited.push_back(s);
        return false;
    });
    std::vector<SliceId> want;
    for (std::uint32_t first = 0; first < slices; first += 64) {
        const std::uint32_t span = std::min<std::uint32_t>(slices - first, 64);
        const std::uint64_t mask =
            slices == 1
                ? 1
                : store.matchSlices(addr, static_cast<SliceId>(first), span);
        for (std::uint32_t k = 0; k < span; ++k) {
            if ((mask >> k) & 1)
                want.push_back(static_cast<SliceId>(first + k));
            else if (refs[first + k].probe(addr))
                return ::testing::AssertionFailure()
                       << "slice " << first + k << " holds line " << addr
                       << " but is not a candidate";
        }
    }
    if (visited != want)
        return ::testing::AssertionFailure()
               << "visited " << visited.size() << " slices, want "
               << want.size();
    return ::testing::AssertionSuccess();
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

        // The matcher: on the line just used, on a random line over
        // a random span, and over a span ending at the last slice of
        // the last set, whose last window reaches into the padding.
        ASSERT_TRUE(matcherCovers(*store, refs, addr, id, 1)) << "op " << op;
        ASSERT_TRUE(candidatesCover(*store, refs, addr)) << "op " << op;
        {
            const std::uint64_t s = rng.below(kSets);
            const Addr line = pools[s][rng.below(pools[s].size())];
            const auto lo = static_cast<std::uint32_t>(rng.below(slices));
            const auto span = static_cast<std::uint32_t>(
                1 + rng.below(std::min<std::uint32_t>(slices - lo, 64)));
            ASSERT_TRUE(matcherCovers(*store, refs, line, lo, span))
                << "op " << op;
            const std::vector<Addr> &last = pools[kSets - 1];
            const auto tail = static_cast<std::uint32_t>(
                1 + rng.below(std::min<std::uint32_t>(slices, 64)));
            ASSERT_TRUE(matcherCovers(*store, refs,
                                      last[rng.below(last.size())],
                                      slices - tail, tail))
                << "op " << op;
        }

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
    ::testing::Values(StoreShape{1, 1, ReplPolicy::LRU},
                      StoreShape{1, 16, ReplPolicy::LRU},
                      StoreShape{2, 1, ReplPolicy::LRU},
                      StoreShape{2, 16, ReplPolicy::LRU},
                      StoreShape{4, 1, ReplPolicy::LRU},
                      StoreShape{4, 16, ReplPolicy::LRU},
                      StoreShape{8, 1, ReplPolicy::LRU},
                      StoreShape{8, 16, ReplPolicy::LRU},
                      StoreShape{12, 1, ReplPolicy::LRU},
                      StoreShape{12, 16, ReplPolicy::LRU},
                      StoreShape{16, 1, ReplPolicy::LRU},
                      StoreShape{16, 16, ReplPolicy::LRU},
                      StoreShape{64, 1, ReplPolicy::LRU},
                      StoreShape{64, 16, ReplPolicy::LRU},
                      StoreShape{8, 70, ReplPolicy::LRU},
                      StoreShape{12, 70, ReplPolicy::LRU},
                      StoreShape{1, 16, ReplPolicy::TreePLRU},
                      StoreShape{2, 16, ReplPolicy::TreePLRU},
                      StoreShape{4, 16, ReplPolicy::TreePLRU},
                      StoreShape{8, 16, ReplPolicy::TreePLRU},
                      StoreShape{16, 16, ReplPolicy::TreePLRU},
                      StoreShape{64, 16, ReplPolicy::TreePLRU},
                      StoreShape{8, 70, ReplPolicy::TreePLRU}),
    [](const ::testing::TestParamInfo<StoreShape> &shape) {
        return std::to_string(std::get<0>(shape.param)) + "way_" +
               std::to_string(std::get<1>(shape.param)) + "slices" +
               (std::get<2>(shape.param) == ReplPolicy::TreePLRU ? "_plru"
                                                                 : "");
    });

// ---------------------------------------------------------------
// Level lockstep: the group walks against per-member probe loops.

/** How a partition groups its slices (members always ascend). */
enum class Layout {
    /** Runs of adjacent slices. */
    Contiguous,
    /** Scattered members. */
    Scattered,
};

/** ((slices, assoc), layout) of one level lockstep run. */
using LevelShape =
    std::tuple<std::tuple<std::uint32_t, std::uint32_t>, Layout>;

template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.below(i)]);
}

/**
 * A random partition of `slices` slices in `layout`; with `whole`,
 * one group of every slice (the widest span a walk matches).
 */
Partition
randomPartition(Rng &rng, std::uint32_t slices, Layout layout, bool whole)
{
    std::vector<SliceId> order(slices);
    for (std::uint32_t s = 0; s < slices; ++s)
        order[s] = static_cast<SliceId>(s);
    if (layout == Layout::Scattered)
        shuffle(order, rng);
    Partition partition;
    for (std::uint32_t at = 0; at < slices;) {
        const auto size = whole ? slices
                                : static_cast<std::uint32_t>(
                                      1 + rng.below(std::min(
                                              slices - at, slices / 2 + 1)));
        partition.emplace_back(order.begin() + at,
                               order.begin() + at + size);
        at += size;
    }
    if (layout == Layout::Scattered) {
        for (auto &group : partition)
            std::sort(group.begin(), group.end());
        std::sort(partition.begin(), partition.end());
    }
    return partition;
}

/** A slice holding a line, and the way its probe returns. */
struct Holder
{
    SliceId slice;
    std::uint32_t way;
};

/**
 * The per-member probe loop the group walks replaced: the slices of
 * `members` holding the line, in the members' order.
 */
std::vector<Holder>
probeEach(const CacheLevelModel &level, const std::vector<SliceId> &members,
          Addr line)
{
    std::vector<Holder> holders;
    for (SliceId member : members) {
        const std::uint32_t way = level.slice(member).probe(line);
        if (way != level.params().sliceGeom.assoc)
            holders.push_back({member, way});
    }
    return holders;
}

/** (line, valid, dirty) of one way. */
struct WayState
{
    Addr line;
    bool valid;
    bool dirty;
    bool operator==(const WayState &) const = default;
};

/** Every way of one set, slice-major. */
std::vector<WayState>
setState(const CacheLevelModel &level, std::uint64_t set)
{
    std::vector<WayState> ways;
    for (std::uint32_t s = 0; s < level.numSlices(); ++s) {
        const ConstCacheSlice view = level.slice(static_cast<SliceId>(s));
        for (std::uint32_t way = 0; way < view.assoc(); ++way)
            ways.push_back({view.lineAddrAt(set, way), view.validAt(set, way),
                            view.dirtyAt(set, way)});
    }
    return ways;
}

/** Hooks that only ask the level for its recency index. */
struct RecencyHooks : LevelHooks
{
    bool wantsRecencyOrder() const override { return true; }
};

class LevelLockstep : public ::testing::TestWithParam<LevelShape>
{
};

TEST_P(LevelLockstep, GroupWalksMatchPerMemberProbes)
{
    const auto [size, layout] = GetParam();
    const auto [slices, assoc] = size;
    LevelParams params;
    params.numSlices = slices;
    params.sliceGeom = CacheGeometry{kSets * assoc * 64, assoc, 64};
    // The fixed remote premium instead of the bus: the latency then
    // follows from the hit and remote flags alone.
    params.remoteCost = RemoteCost::Premium;
    CacheLevelModel level(params);
    RecencyHooks recency;
    std::vector<std::vector<Addr>> pools;
    for (std::uint64_t set = 0; set < kSets; ++set)
        pools.push_back(addressPool(set, assoc));

    Rng rng(slices * 1009 + assoc * 17 + static_cast<std::uint32_t>(layout));
    constexpr int kOps = 12000;
    std::uint64_t duplicate_hits = 0;
    std::uint64_t not_lowest = 0;
    std::uint64_t wide_walks = 0;

    for (int op = 0; op < kOps; ++op) {
        if (op % 250 == 0)
            level.configure(
                randomPartition(rng, slices, layout, op % 1000 == 750));
        if (op == kOps / 2)
            level.setHooks(&recency); // lazy drops keep the index in step
        const auto core = static_cast<CoreId>(rng.below(slices));
        const std::uint64_t set = rng.below(kSets);
        const Addr line = pools[set][rng.below(pools[set].size())];
        const std::vector<SliceId> group = level.groupSlices(core);
        std::vector<SliceId> others;
        for (std::uint32_t s = 0; s < slices; ++s)
            if (level.groupOf(static_cast<SliceId>(s)) != level.groupOf(core))
                others.push_back(static_cast<SliceId>(s));
        std::vector<SliceId> picked(others);
        picked.insert(picked.end(), group.begin(), group.end());
        shuffle(picked, rng);
        picked.resize(1 + rng.below(picked.size()));
        wide_walks += *std::max_element(group.begin(), group.end()) -
                          *std::min_element(group.begin(), group.end()) >=
                      64;

        std::vector<WayState> want = setState(level, set);
        const auto drop = [&](const Holder &h) {
            WayState &way = want[h.slice * assoc + h.way];
            way.valid = false;
            way.dirty = false;
        };
        const auto lowest = [](const std::vector<Holder> &holders) {
            return std::min_element(holders.begin(), holders.end(),
                                    [](const Holder &a, const Holder &b) {
                                        return a.slice < b.slice;
                                    })
                ->slice;
        };
        const bool dirty = rng.below(2) == 1;
        const std::uint64_t draw = rng.below(100);
        std::string what;
        if (draw < 20) {
            level.insert(core, line, dirty);
            want = setState(level, set);
        } else if (draw < 35) {
            // Any slice, group or not: the source of duplicates.
            level.insertIntoSlice(core, static_cast<SliceId>(rng.below(slices)),
                                  line, dirty);
            want = setState(level, set);
        } else if (draw < 55) {
            what = "lookup";
            const std::vector<Holder> holders = probeEach(level, group, line);
            const Holder *hit = holders.empty() ? nullptr : &holders.front();
            for (const Holder &h : holders)
                if (h.slice == core)
                    hit = &h;
            const std::uint64_t lazy = level.stats().lazyInvalidations;
            const LookupOutcome out = level.lookup(core, line, 0);
            ASSERT_EQ(out.hit, hit != nullptr) << "op " << op;
            if (hit != nullptr) {
                ASSERT_EQ(out.slice, hit->slice) << "op " << op;
                ASSERT_EQ(out.remote, hit->slice != core) << "op " << op;
                ASSERT_EQ(out.latency, out.remote ? 25u : 10u) << "op " << op;
                for (const Holder &h : holders)
                    if (h.slice != hit->slice)
                        drop(h);
                duplicate_hits += holders.size() > 1;
                not_lowest += hit->slice != lowest(holders);
            } else {
                ASSERT_EQ(out.latency, 10u) << "op " << op;
            }
            ASSERT_EQ(level.stats().lazyInvalidations - lazy,
                      holders.empty() ? 0 : holders.size() - 1)
                << "op " << op;
        } else if (draw < 65) {
            what = "markDirty";
            const std::vector<Holder> holders = probeEach(level, group, line);
            ASSERT_EQ(level.markDirty(core, line), !holders.empty())
                << "op " << op;
            if (!holders.empty()) {
                want[holders.front().slice * assoc + holders.front().way]
                    .dirty = true;
                not_lowest += holders.front().slice != lowest(holders);
            }
        } else if (draw < 75) {
            ASSERT_EQ(level.presentInGroup(core, line),
                      !probeEach(level, group, line).empty())
                << "op " << op;
        } else if (draw < 82) {
            const std::vector<Holder> holders = probeEach(level, others, line);
            const std::optional<SliceId> found =
                level.findInOtherGroups(core, line);
            ASSERT_EQ(found.has_value(), !holders.empty()) << "op " << op;
            if (found) {
                ASSERT_EQ(*found, holders.front().slice) << "op " << op;
            }
        } else {
            const bool inside = draw < 91;
            what = inside ? "invalidateInSlices" : "invalidateOutsideGroup";
            const std::vector<Holder> holders =
                probeEach(level, inside ? picked : others, line);
            bool any_dirty = false;
            for (const Holder &h : holders) {
                any_dirty = any_dirty || want[h.slice * assoc + h.way].dirty;
                drop(h);
            }
            ASSERT_EQ(inside ? level.invalidateInSlices(picked, line)
                             : level.invalidateOutsideGroup(core, line),
                      any_dirty)
                << what << " op " << op;
        }
        ASSERT_TRUE(setState(level, set) == want) << what << " op " << op;
    }
    EXPECT_GT(duplicate_hits, 0u);
    EXPECT_GT(not_lowest, 0u);
    if (slices > 64) {
        EXPECT_GT(wide_walks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, LevelLockstep,
    ::testing::Combine(::testing::Values(std::tuple{4u, 8u},
                                         std::tuple{16u, 8u},
                                         std::tuple{70u, 12u}),
                       ::testing::Values(Layout::Contiguous,
                                         Layout::Scattered)),
    [](const ::testing::TestParamInfo<LevelShape> &shape) {
        const auto &size = std::get<0>(shape.param);
        const Layout layout = std::get<1>(shape.param);
        return std::to_string(std::get<0>(size)) + "slices_" +
               std::to_string(std::get<1>(size)) + "way_" +
               (layout == Layout::Contiguous ? "contiguous" : "scattered");
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
