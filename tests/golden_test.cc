/**
 * @file
 * Golden-bytes equivalence tests for the hot-path rework.
 *
 * Two layers of protection for "make it faster without changing one
 * simulated byte":
 *
 *  - golden stats fixtures: every scheme x a pair of mixes runs
 *    as a small 4-core cell and the full stats JSON is compared
 *    byte-for-byte against a committed fixture generated before the
 *    struct-of-arrays refactor (regenerate deliberately with
 *    MC_UPDATE_GOLDEN=1); the baseline cells are also rendered
 *    through every CoreStats field and the per-epoch IPCs and
 *    misses; 16-core cells
 *    (ucp/pipp/dsr, ucp/pipp, morph and all-shared static at paper
 *    scale, PARSEC under morph) pin the 16-slice group paths through
 *    every CoreStats field and every registered stat;
 *    the modes a RunSpec cannot select (arbitrary-size and
 *    non-neighbor groups, a 2 x 8 tiled system, the ideal offline
 *    oracle) are built directly and rendered the same way;
 *
 *  - naive reference models: victimWay, tree-PLRU victim descent,
 *    lazy invalidation of merge duplicates, group-LRU victim choice,
 *    PIPP's stack-position insert (against the original
 *    gather-and-sort), UCP's victim choice (against the original
 *    slice-major scan) and the level's recency index (against a
 *    fresh sort of every set) are each pinned against a
 *    straightforward independent implementation, so the fast paths
 *    cannot silently change replacement semantics.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/ideal_offline.hh"
#include "baselines/ucp.hh"
#include "ckpt/run_spec.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "hierarchy/cache_level.hh"
#include "mem/slice.hh"
#include "runner/run_factory.hh"
#include "sim/config.hh"
#include "sim/tiled.hh"
#include "stats/registry.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace morphcache {
namespace {

// ---------------------------------------------------------------
// Golden stats fixtures
// ---------------------------------------------------------------

const char *const kGoldenSchemes[] = {"morph", "static:2:2:1", "ucp",
                                      "pipp", "dsr"};
const int kGoldenMixes[] = {1, 8};

std::string
goldenDir()
{
    return std::string(MC_SOURCE_DIR) + "/tests/golden";
}

/**
 * Fixture filename for one cell ("static:4:2:1" -> "static-4-2-1"),
 * after an optional kind prefix.
 */
std::string
fixturePath(const std::string &scheme, int mix, const char *prefix = "")
{
    std::string tag = scheme;
    for (char &c : tag)
        if (c == ':')
            c = '-';
    char name[64];
    std::snprintf(name, sizeof(name), "/%s%s_mix%02d.json", prefix,
                  tag.c_str(), mix);
    return goldenDir() + name;
}

/**
 * Render everything a finished cell simulated: every core's
 * CoreStats, every recorded epoch's IPCs and misses, every
 * registered stat (unless `with_stats` is false, for a cell whose
 * stats JSON has its own fixture), and the topology chosen per
 * epoch when the scheme reports one. `system` is null for runs with
 * no MemorySystem (the ideal offline oracle). Doubles print
 * round-trip exact.
 */
std::string
renderCell(const std::string &name, const RunResult &result,
           MemorySystem *system,
           const std::vector<std::string> &topologies = {},
           bool with_stats = true)
{
    std::ostringstream out;
    char num[32];
    const auto f64 = [&](double v) {
        std::snprintf(num, sizeof(num), "%.17g", v);
        return std::string(num);
    };
    out << "{\n  \"cell\": \"" << name << "\",\n";
    if (!topologies.empty()) {
        out << "  \"topologies\": [";
        for (std::size_t e = 0; e < topologies.size(); ++e)
            out << (e ? ", " : "") << "\"" << topologies[e] << "\"";
        out << "],\n";
    }
    out << "  \"cores\": [\n";
    const std::uint32_t cores = system ? system->numCores() : 0;
    for (std::uint32_t c = 0; c < cores; ++c) {
        const CoreStats &s = system->coreStats(static_cast<CoreId>(c));
        out << "    [" << s.accesses << ", " << s.l1Hits << ", "
            << s.l2LocalHits << ", " << s.l2RemoteHits << ", "
            << s.l3LocalHits << ", " << s.l3RemoteHits << ", "
            << s.otherGroupTransfers << ", " << s.memAccesses << ", "
            << s.writebacks << ", " << s.totalLatency << "]"
            << (c + 1 < cores ? ",\n" : "\n");
    }
    out << "  ],\n  \"epochs\": [\n";
    for (std::size_t e = 0; e < result.epochs.size(); ++e) {
        const EpochMetrics &m = result.epochs[e];
        out << "    {\"throughput\": " << f64(m.throughput)
            << ", \"ipc\": [";
        for (std::size_t c = 0; c < m.ipc.size(); ++c)
            out << (c ? ", " : "") << f64(m.ipc[c]);
        out << "], \"misses\": [";
        for (std::size_t c = 0; c < m.misses.size(); ++c)
            out << (c ? ", " : "") << m.misses[c];
        out << "]}" << (e + 1 < result.epochs.size() ? ",\n" : "\n");
    }
    out << "  ],\n  \"avgThroughput\": " << f64(result.avgThroughput)
        << ",\n  \"performance\": " << f64(result.performance)
        << ",\n  \"stats\": {";
    StatsRegistry registry;
    if (system && with_stats)
        system->registerStats(registry);
    const std::vector<std::string> names = registry.names();
    for (std::size_t i = 0; i < names.size(); ++i) {
        out << (i ? ",\n" : "\n") << "    \"" << names[i]
            << "\": " << f64(registry.value(names[i]));
    }
    out << (names.empty() ? "}\n}\n" : "\n  }\n}\n");
    return out.str();
}

/** What one 4-core golden cell pins. */
struct GoldenCell
{
    /** The cell's stats registry JSON. */
    std::string statsJson;
    /**
     * renderCell() of the run for a baseline scheme (ucp, pipp,
     * dsr), so every CoreStats field and per-epoch result is pinned
     * too; empty otherwise.
     */
    std::string rendered;
};

/** One small deterministic 4-core cell with stats JSON on. */
GoldenCell
runGoldenCell(const std::string &scheme, int mix)
{
    RunSpec spec;
    spec.workload = "mix:" + std::to_string(mix);
    spec.scheme = scheme;
    spec.cores = 4;
    spec.epochs = 3;
    spec.refs = 1500;
    spec.seed = 42;
    BuiltRun built = buildRun(spec);
    built.sim.warmupEpochs = 1;

    StatsRegistry registry;
    StatsMeta meta;
    meta.seed = spec.seed;
    meta.configHash = configHashHex("golden " + scheme);
    registry.setMeta(meta);
    built.system->registerStats(registry);

    Simulation simulation(*built.system, *built.workload, built.sim);
    simulation.setRegistry(&registry);
    const RunResult result = simulation.run();

    GoldenCell cell;
    cell.statsJson = registry.jsonString();
    if (scheme == "ucp" || scheme == "pipp" || scheme == "dsr") {
        cell.rendered = renderCell(
            "golden " + scheme + " " + spec.workload, result,
            built.system.get(), {}, /*with_stats=*/false);
    }
    return cell;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Compare a cell's output with its committed fixture, or rewrite the
 * fixture when MC_UPDATE_GOLDEN is set.
 */
void
expectMatchesFixture(const std::string &path, const std::string &text)
{
    if (std::getenv("MC_UPDATE_GOLDEN") != nullptr) {
        std::filesystem::create_directories(goldenDir());
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << path;
        out << text;
        return;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << path
        << " (regenerate with MC_UPDATE_GOLDEN=1)";
    EXPECT_EQ(text, golden)
        << "cell output diverged from its fixture: " << path;
}

TEST(GoldenStats, EverySchemeMatchesFixture)
{
    for (const char *scheme : kGoldenSchemes) {
        for (int mix : kGoldenMixes) {
            SCOPED_TRACE(std::string(scheme) + " mix " +
                         std::to_string(mix));
            const GoldenCell cell = runGoldenCell(scheme, mix);
            ASSERT_FALSE(cell.statsJson.empty());
            expectMatchesFixture(fixturePath(scheme, mix),
                                 cell.statsJson);
            if (!cell.rendered.empty()) {
                expectMatchesFixture(
                    fixturePath(scheme, mix, "render_"), cell.rendered);
            }
        }
    }
}

TEST(GoldenStats, CellIsDeterministic)
{
    // The fixture comparison is only meaningful if the cell itself
    // is run-to-run byte-stable.
    EXPECT_EQ(runGoldenCell("morph", 1).statsJson,
              runGoldenCell("morph", 1).statsJson);
    EXPECT_EQ(runGoldenCell("ucp", 1).rendered,
              runGoldenCell("ucp", 1).rendered);
}

// ---------------------------------------------------------------
// 16-slice golden fixtures
// ---------------------------------------------------------------

/** One 16-core cell: every L2/L3 group is (or can grow to) 16 wide. */
struct WideCell
{
    const char *workload;
    const char *scheme;
    bool paperScale;
};

const WideCell kWideCells[] = {
    {"mix:1", "ucp", false},
    {"mix:1", "pipp", false},
    {"mix:1", "dsr", false},
    {"mix:1", "static:16:1:1", true},
    {"parsec:canneal", "morph", false},
    // Paper-scale L3 sets (16 x 16384 lines) stay partly empty for
    // the whole cell: invalid-way victims, fresh-stamp fallbacks.
    {"mix:1", "ucp", true},
    {"mix:1", "pipp", true},
    {"mix:1", "morph", true},
};

std::string
wideFixturePath(const WideCell &cell)
{
    std::string tag = std::string(cell.scheme) + "_" + cell.workload;
    for (char &c : tag)
        if (c == ':')
            c = '-';
    return goldenDir() + "/wide16_" + tag +
           (cell.paperScale ? "_paper" : "") + ".json";
}

/** Run one short 16-core cell built from a RunSpec and render it. */
std::string
runWideCell(const WideCell &cell)
{
    RunSpec spec;
    spec.workload = cell.workload;
    spec.scheme = cell.scheme;
    spec.paperScale = cell.paperScale;
    spec.cores = 16;
    spec.epochs = 2;
    spec.refs = 4000;
    spec.seed = 42;
    BuiltRun built = buildRun(spec);
    built.sim.warmupEpochs = 1;
    Simulation sim(*built.system, *built.workload, built.sim);
    const RunResult result = sim.run();
    return renderCell(describe(spec), result, built.system.get());
}

TEST(GoldenStats, WideGroupCellsMatchFixture)
{
    for (const WideCell &cell : kWideCells) {
        SCOPED_TRACE(std::string(cell.scheme) + " " + cell.workload);
        expectMatchesFixture(wideFixturePath(cell), runWideCell(cell));
    }
}

// ---------------------------------------------------------------
// Modes a RunSpec cannot select
// ---------------------------------------------------------------

/** Simulation shape shared by the mode cells. */
SimParams
modeCellSim()
{
    SimParams sim;
    sim.epochs = 4;
    sim.warmupEpochs = 1;
    sim.refsPerEpochPerCore = 4000;
    return sim;
}

/** MorphCache on 16-core mix 1 at fast scale under `config`. */
std::string
runMorphModeCell(const std::string &name, const MorphConfig &config)
{
    const HierarchyParams hier = fastScaleHierarchy(16);
    MixWorkload workload(mixByName("MIX 01"), generatorFor(hier), 42);
    MorphCacheSystem system(hier, config);
    Simulation sim(system, workload, modeCellSim());
    const RunResult result = sim.run();
    return renderCell(name, result, &system);
}

TEST(GoldenStats, ArbitraryGroupSizesMatchFixture)
{
    MorphConfig config;
    config.allowArbitraryGroupSizes = true;
    expectMatchesFixture(
        goldenDir() + "/mode16_morph_arbitrary_mix-1.json",
        runMorphModeCell("morph arbitrary-size groups, mix:1", config));
}

TEST(GoldenStats, NonNeighborGroupsMatchFixture)
{
    // Non-contiguous groups: the members of one group are not
    // adjacent slices, so every group-wide walk strides the level.
    MorphConfig config;
    config.allowNonNeighborGroups = true;
    expectMatchesFixture(
        goldenDir() + "/mode16_morph_nonneighbor_mix-1.json",
        runMorphModeCell("morph non-neighbor groups, mix:1", config));
}

TEST(GoldenStats, TiledSystemMatchesFixture)
{
    const HierarchyParams tile = fastScaleHierarchy(8);
    MixWorkload workload(mixByName("MIX 01"), generatorFor(tile), 42);
    TiledMorphSystem system(tile, MorphConfig{}, 2);
    Simulation sim(system, workload, modeCellSim());
    const RunResult result = sim.run();
    expectMatchesFixture(goldenDir() + "/mode16_tiled_2x8_mix-1.json",
                         renderCell("tiled 2x8 morph, mix:1", result,
                                    &system));
}

TEST(GoldenStats, IdealOfflineMatchesFixture)
{
    // The oracle copies the whole Hierarchy once per candidate per
    // epoch, so this pins the hierarchy's value semantics.
    const HierarchyParams hier = fastScaleHierarchy(16);
    MixWorkload workload(mixByName("MIX 01"), generatorFor(hier), 42);
    const std::vector<Topology> candidates = {
        Topology::symmetric(16, 16, 1, 1),
        Topology::symmetric(16, 1, 1, 16),
        Topology::symmetric(16, 4, 4, 1),
        Topology::symmetric(16, 8, 2, 1),
        Topology::symmetric(16, 1, 16, 1),
    };
    const IdealOfflineResult ideal =
        runIdealOffline(hier, candidates, workload, modeCellSim());
    expectMatchesFixture(goldenDir() + "/mode16_ideal_offline_mix-1.json",
                         renderCell("ideal offline, mix:1", ideal.run,
                                    nullptr, ideal.chosenTopology));
}

// ---------------------------------------------------------------
// Naive reference models
// ---------------------------------------------------------------

/** Mirror of one way's replacement-relevant state. */
struct NaiveLine
{
    bool valid = false;
    Addr lineAddr = 0;
    std::uint64_t stamp = 0;
};

/** First invalid way in way order, else strict-min-stamp from way 0. */
std::uint32_t
naiveVictim(const std::vector<NaiveLine> &set)
{
    for (std::uint32_t way = 0; way < set.size(); ++way)
        if (!set[way].valid)
            return way;
    std::uint32_t victim = 0;
    std::uint64_t oldest = set[0].stamp;
    for (std::uint32_t way = 1; way < set.size(); ++way) {
        if (set[way].stamp < oldest) {
            oldest = set[way].stamp;
            victim = way;
        }
    }
    return victim;
}

TEST(ReferenceModel, VictimWayPrefersInvalidThenMinStamp)
{
    const CacheGeometry geom{8 * 1024, 8, 64}; // 16 sets x 8 ways
    SliceStore store(1, geom, ReplPolicy::LRU);
    const CacheSlice slice = store.slice(0);
    std::vector<std::vector<NaiveLine>> mirror(
        geom.numSets(), std::vector<NaiveLine>(geom.assoc));

    Rng rng(1234);
    std::uint64_t stamp = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t set = rng.below(geom.numSets());
        // Address that maps to `set` (numSets is a power of two).
        const Addr addr = set + rng.below(64) * geom.numSets();
        const std::uint64_t draw = rng.below(100);
        if (draw < 55) {
            // Fill at the victim way, like the level's LRU path.
            const std::uint32_t way = slice.victimWay(set);
            ASSERT_EQ(way, naiveVictim(mirror[set])) << "op " << op;
            slice.fill(set, way, addr, false, ++stamp);
            mirror[set][way] = {true, addr, stamp};
        } else if (draw < 85) {
            // Touch a resident line if this address is present.
            const std::uint32_t way = slice.probe(addr);
            // First-match semantics, like probe() (duplicate fills
            // can leave one address in two ways).
            std::uint32_t naive_way = geom.assoc;
            for (std::uint32_t w = 0; w < geom.assoc; ++w)
                if (mirror[set][w].valid &&
                    mirror[set][w].lineAddr == addr) {
                    naive_way = w;
                    break;
                }
            ASSERT_EQ(way, naive_way);
            if (way != geom.assoc) {
                slice.touch(set, way, ++stamp);
                mirror[set][way].stamp = stamp;
            }
        } else {
            // invalidate() drops only the first probe match.
            const Eviction ev = slice.invalidate(addr);
            bool naive_present = false;
            for (auto &line : mirror[set])
                if (line.valid && line.lineAddr == addr) {
                    line.valid = false;
                    naive_present = true;
                    break;
                }
            ASSERT_EQ(ev.valid, naive_present);
        }
        ASSERT_EQ(slice.victimWay(set), naiveVictim(mirror[set]))
            << "op " << op << " set " << set;
    }
}

/**
 * Independent generalized tree-PLRU: direction bits as a plain
 * array, victim by iterative root-to-leaf descent, touch by walking
 * the leaf-to-root path and pointing every node away from it.
 */
struct NaivePlru
{
    std::uint32_t assoc;
    std::vector<bool> bits; // 1-based heap order

    explicit NaivePlru(std::uint32_t a) : assoc(a), bits(2 * a, false)
    {
    }

    std::uint32_t
    victim() const
    {
        std::uint32_t node = 1;
        while (node < assoc)
            node = 2 * node + (bits[node] ? 1 : 0);
        return node - assoc;
    }

    void
    touch(std::uint32_t way)
    {
        std::uint32_t node = way + assoc;
        while (node > 1) {
            const std::uint32_t parent = node / 2;
            // Point the parent at the *other* subtree.
            bits[parent] = (node == 2 * parent) ? true : false;
            node = parent;
        }
    }
};

TEST(ReferenceModel, TreePlruVictimMatchesNaiveDescent)
{
    const CacheGeometry geom{4 * 1024, 8, 64}; // 8 sets x 8 ways
    SliceStore store(1, geom, ReplPolicy::TreePLRU);
    const CacheSlice slice = store.slice(0);
    std::vector<NaivePlru> mirror(geom.numSets(), NaivePlru(8));
    // Fill every way so victimWay reaches the PLRU tree.
    std::uint64_t stamp = 0;
    for (std::uint64_t set = 0; set < geom.numSets(); ++set)
        for (std::uint32_t way = 0; way < geom.assoc; ++way) {
            slice.fill(set, way,
                       set + (way + 1) * geom.numSets(), false,
                       ++stamp);
            mirror[set].touch(way);
        }

    Rng rng(99);
    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t set = rng.below(geom.numSets());
        const std::uint32_t way =
            static_cast<std::uint32_t>(rng.below(geom.assoc));
        slice.touch(set, way, ++stamp);
        mirror[set].touch(way);
        ASSERT_EQ(slice.victimWay(set), mirror[set].victim())
            << "op " << op << " set " << set;
    }
}

LevelParams
tinyLevel(std::uint32_t slices)
{
    LevelParams params;
    params.name = "L2";
    params.numSlices = slices;
    params.sliceGeom = CacheGeometry{16 * 1024, 4, 64};
    params.localHitLatency = 10;
    return params;
}

/** Distinct lines all mapping to one set of the tiny geometry. */
Addr
tinyLineInSet(std::uint64_t set, std::uint64_t k)
{
    return set + (k + 1) * tinyLevel(2).sliceGeom.numSets();
}

TEST(ReferenceModel, LazyInvalidationDropsMergeDuplicates)
{
    CacheLevelModel level(tinyLevel(4));
    // Private phase: the same line lands in two physical slices.
    level.insert(0, 0x200, false);
    level.insert(1, 0x200, false);
    ASSERT_TRUE(level.slice(0).contains(0x200));
    ASSERT_TRUE(level.slice(1).contains(0x200));

    // Merge, then one lookup: the hit must resolve to exactly one
    // copy and lazily invalidate the duplicate.
    level.configure({{0, 1}, {2}, {3}});
    const std::uint64_t lazy_before = level.stats().lazyInvalidations;
    const LookupOutcome out = level.lookup(0, 0x200, 0);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(level.stats().lazyInvalidations, lazy_before + 1);
    const int copies = (level.slice(0).contains(0x200) ? 1 : 0) +
                       (level.slice(1).contains(0x200) ? 1 : 0);
    EXPECT_EQ(copies, 1);
}

TEST(ReferenceModel, GroupLruEvictsGloballyOldestLine)
{
    CacheLevelModel level(tinyLevel(2));
    level.configure({{0, 1}});
    const std::uint64_t set = 7;

    // Mirror of (line -> stamp) under the level's own stamp counter:
    // every insert and every default-promote hit takes one stamp.
    std::vector<Addr> resident;
    std::vector<std::uint64_t> stamps;
    std::uint64_t stamp = 0;
    for (std::uint64_t k = 0; k < 8; ++k) {
        level.insert(0, tinyLineInSet(set, k), false);
        resident.push_back(tinyLineInSet(set, k));
        stamps.push_back(++stamp);
    }
    // Touch a scattered subset so the naive LRU order is nontrivial.
    for (std::uint64_t k : {0ULL, 3ULL, 5ULL, 1ULL, 6ULL}) {
        ASSERT_TRUE(level.lookup(0, tinyLineInSet(set, k), 0).hit);
        stamps[k] = ++stamp;
    }

    for (std::uint64_t k = 8; k < 12; ++k) {
        // Naive prediction: strict-min-stamp across the whole group.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < resident.size(); ++i)
            if (stamps[i] < stamps[victim])
                victim = i;
        const Addr predicted = resident[victim];

        const InsertOutcome out =
            level.insert(0, tinyLineInSet(set, k), false);
        ASSERT_TRUE(out.evicted.valid) << "k " << k;
        EXPECT_EQ(out.evicted.lineAddr, predicted) << "k " << k;
        EXPECT_FALSE(level.presentInGroup(0, predicted));

        resident[victim] = tinyLineInSet(set, k);
        stamps[victim] = ++stamp;
    }
}

// ---------------------------------------------------------------
// Differential checks of the wide-group fast paths
// ---------------------------------------------------------------

/** Default-behaviour hooks that ask the level for its recency index. */
struct RecencyHooks : LevelHooks
{
    bool wantsRecencyOrder() const override { return true; }
};

/**
 * The recency index's definition: every (group, set)'s valid ways
 * as keys (member position x assoc + way), sorted by a fresh
 * (stamp, member, way) sort of the slices.
 */
::testing::AssertionResult
recencyIndexMatchesSort(const CacheLevelModel &level)
{
    if (!level.hasRecencyIndex())
        return ::testing::AssertionFailure() << "no recency index";
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    const Partition &partition = level.partition();
    std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>>
        ways;
    std::vector<std::uint16_t> want;
    for (std::uint32_t g = 0; g < partition.size(); ++g) {
        for (std::uint64_t set = 0;
             set < level.params().sliceGeom.numSets(); ++set) {
            ways.clear();
            for (std::uint32_t pos = 0; pos < partition[g].size(); ++pos) {
                const auto s = level.slice(partition[g][pos]);
                for (std::uint32_t way = 0; way < assoc; ++way) {
                    if (s.validAt(set, way))
                        ways.emplace_back(s.stampAt(set, way), pos, way);
                }
            }
            std::sort(ways.begin(), ways.end());
            want.clear();
            for (const auto &[stamp, pos, way] : ways)
                want.push_back(static_cast<std::uint16_t>(pos * assoc + way));
            const auto got = level.recencyOrder(g, set);
            if (!std::equal(got.begin(), got.end(), want.begin(),
                            want.end())) {
                return ::testing::AssertionFailure()
                       << "group " << g << " set " << set << ": "
                       << got.size() << " keys indexed, " << want.size()
                       << " valid ways";
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * Round-trip the level through saveState/loadState into a fresh
 * level that asks for the index: the rebuilt index must match the
 * fresh sort and the live level's index.
 */
::testing::AssertionResult
recencyIndexSurvivesCheckpoint(const CacheLevelModel &level)
{
    CkptWriter w;
    level.saveState(w);
    CacheLevelModel copy(level.params());
    RecencyHooks hooks;
    copy.setHooks(&hooks);
    CkptReader r("level", w.buffer());
    copy.loadState(r);
    const ::testing::AssertionResult sorted = recencyIndexMatchesSort(copy);
    if (!sorted)
        return sorted;
    for (std::uint32_t g = 0; g < level.partition().size(); ++g) {
        for (std::uint64_t set = 0;
             set < level.params().sliceGeom.numSets(); ++set) {
            const auto a = level.recencyOrder(g, set);
            const auto b = copy.recencyOrder(g, set);
            if (!std::equal(a.begin(), a.end(), b.begin(), b.end()))
                return ::testing::AssertionFailure()
                       << "group " << g << " set " << set
                       << " differs after loadState";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Where a stack-position insert lands and the stamp it takes. */
struct StackInsertPick
{
    SliceId slice = invalidSlice;
    std::uint32_t way = 0;
    /** Stamp at the requested rank; nullopt means a fresh stamp. */
    std::optional<std::uint64_t> stamp;
    /** The picked stamp occurs more than once among the ranks. */
    bool tied = false;
};

/**
 * The original insertAtStackPosition, kept as the reference: a
 * victim scan, then a second pass gathering every valid stamp but
 * the victim's, then a full sort to read one rank.
 */
StackInsertPick
referenceStackInsert(const CacheLevelModel &level, CoreId core,
                     Addr line_addr, std::uint32_t position)
{
    const std::vector<SliceId> &group = level.groupSlices(core);
    const std::uint64_t set = level.slice(core).setIndex(line_addr);
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    StackInsertPick pick;
    std::uint64_t oldest = ~std::uint64_t{0};
    for (SliceId member : group) {
        const auto s = level.slice(member);
        const std::uint32_t inv = s.firstInvalidWay(set);
        if (inv != assoc) {
            pick.slice = member;
            pick.way = inv;
            break;
        }
        for (std::uint32_t way = 0; way < assoc; ++way) {
            if (s.stampAt(set, way) < oldest) {
                oldest = s.stampAt(set, way);
                pick.slice = member;
                pick.way = way;
            }
        }
    }
    std::vector<std::uint64_t> stamps;
    for (SliceId member : group) {
        const auto s = level.slice(member);
        for (std::uint32_t way = 0; way < assoc; ++way) {
            if (s.validAt(set, way) &&
                !(member == pick.slice && way == pick.way))
                stamps.push_back(s.stampAt(set, way));
        }
    }
    std::sort(stamps.begin(), stamps.end());
    if (position < stamps.size()) {
        pick.stamp = stamps[position];
        pick.tied = std::count(stamps.begin(), stamps.end(),
                               stamps[position]) > 1;
    }
    return pick;
}

TEST(ReferenceModel, StackInsertSelectionMatchesGatherAndSort)
{
    CacheLevelModel level(tinyLevel(4)); // 4 slices x 4 ways
    RecencyHooks hooks;
    level.setHooks(&hooks);
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    const Partition shapes[] = {
        {{0, 1, 2, 3}}, {{0, 1}, {2, 3}}, {{0}, {1, 2, 3}}};
    const std::uint64_t sets[] = {3, 9};

    // Mirror of the level's stamp counter: every default insert,
    // default-promote hit and fresh-stamp fallback takes one.
    std::uint64_t stamp = 0;
    std::uint64_t inserts = 0, fresh = 0, valid_victims = 0,
                  invalid_victims = 0, tied = 0;
    Rng rng(4242);
    for (int op = 0; op < 20000; ++op) {
        // Every operation below leaves the index equal to a fresh
        // sort, and so does a checkpoint round trip.
        ASSERT_TRUE(recencyIndexMatchesSort(level)) << "before op " << op;
        if (op % 500 == 0) {
            ASSERT_TRUE(recencyIndexSurvivesCheckpoint(level))
                << "op " << op;
        }
        if (op % 2500 == 0) {
            level.configure(shapes[(op / 2500) % 3]);
            // A merge can leave one line in two member slices: look
            // every line up once per group so duplicates are dropped
            // lazily (each hit takes one stamp).
            for (const std::vector<SliceId> &members : level.partition())
                for (std::uint64_t set : sets)
                    for (std::uint64_t k = 0; k < 40; ++k)
                        if (level.lookup(members.front(),
                                         tinyLineInSet(set, k), 0)
                                .hit)
                            ++stamp;
            ASSERT_TRUE(recencyIndexMatchesSort(level))
                << "after configure at op " << op;
        }
        const auto core = static_cast<CoreId>(rng.below(4));
        const std::uint64_t set = sets[rng.below(2)];
        const Addr line = tinyLineInSet(set, rng.below(40));
        const std::vector<SliceId> &group = level.groupSlices(core);
        const std::uint64_t draw = rng.below(100);
        if (draw < 45) {
            // PIPP inserts only missing lines.
            if (level.presentInGroup(core, line))
                continue;
            // Every rank from LRU through one past MRU, in turn.
            const auto ways =
                static_cast<std::uint32_t>(group.size()) * assoc;
            const auto position =
                static_cast<std::uint32_t>(inserts++ % (ways + 2));
            const StackInsertPick want =
                referenceStackInsert(level, core, line, position);
            const auto victim = level.slice(want.slice);
            const bool victim_valid = victim.validAt(set, want.way);
            const Addr victim_line = victim.lineAddrAt(set, want.way);

            const InsertOutcome out =
                level.insertAtStackPosition(core, line, false, position);
            ASSERT_EQ(out.slice, want.slice) << "op " << op;
            const auto target = level.slice(out.slice);
            ASSERT_TRUE(target.validAt(set, want.way)) << "op " << op;
            ASSERT_EQ(target.lineAddrAt(set, want.way), line)
                << "op " << op;
            ASSERT_EQ(out.evicted.valid, victim_valid) << "op " << op;
            if (victim_valid) {
                ASSERT_EQ(out.evicted.lineAddr, victim_line);
            }
            const std::uint64_t expect =
                want.stamp ? *want.stamp : ++stamp;
            ASSERT_EQ(target.stampAt(set, want.way), expect)
                << "op " << op << " position " << position;
            fresh += want.stamp ? 0 : 1;
            valid_victims += victim_valid ? 1 : 0;
            invalid_victims += victim_valid ? 0 : 1;
            tied += want.tied ? 1 : 0;
        } else if (draw < 60) {
            if (level.presentInGroup(core, line))
                continue;
            const InsertOutcome out = level.insert(core, line, false);
            const std::uint32_t way = level.slice(out.slice).probe(line);
            ASSERT_NE(way, assoc);
            ASSERT_EQ(level.slice(out.slice).stampAt(set, way), ++stamp)
                << "op " << op;
        } else if (draw < 75) {
            const LookupOutcome out = level.lookup(core, line, 0);
            if (!out.hit)
                continue;
            const std::uint32_t way = level.slice(out.slice).probe(line);
            ASSERT_NE(way, assoc);
            ASSERT_EQ(level.slice(out.slice).stampAt(set, way), ++stamp)
                << "op " << op;
        } else if (draw < 90) {
            // Swaps recency with the next line up; after stack
            // inserts that can leave equal stamps side by side.
            const SliceId member = group[rng.below(group.size())];
            const auto way =
                static_cast<std::uint32_t>(rng.below(assoc));
            if (level.slice(member).validAt(set, way))
                level.promoteByOne(member, set, way);
        } else if (draw < 95) {
            // Punch a hole so later victims can be invalid ways.
            level.invalidateInSlices(group, line);
        } else {
            // Write-invalidate: drop copies held by other groups.
            level.invalidateOutsideGroup(core, line);
        }
    }
    ASSERT_TRUE(recencyIndexMatchesSort(level));
    ASSERT_TRUE(recencyIndexSurvivesCheckpoint(level));
    // Every mutation site of the index ran.
    EXPECT_GT(level.stats().lazyInvalidations, 0u);
    EXPECT_GT(level.stats().inclusionInvalidations, 0u);
    EXPECT_GT(level.stats().coherenceInvalidations, 0u);
    EXPECT_GT(fresh, 0u);
    EXPECT_GT(valid_victims, 0u);
    EXPECT_GT(invalid_victims, 0u);
    EXPECT_GT(tied, 0u);
}

/** Which replacement branch UCP's victim choice took. */
enum class UcpBranch
{
    InvalidWay,
    AtQuota,        // own LRU line
    OverQuotaOwner, // LRU line of an over-quota core
    GlobalLru,      // under quota, no core over quota
};

struct UcpPick
{
    SliceId slice = invalidSlice;
    std::uint32_t way = 0;
    UcpBranch branch = UcpBranch::InvalidWay;
};

/**
 * The original UcpPolicy victim choice, kept as the reference: the
 * first invalid way slice-major, else a survey of the set's owners
 * and a strict slice-major minimum-stamp scan over own lines (at
 * quota), over-quota owners' lines, or every line.
 * `owner[slice][set * assoc + way]` mirrors the policy's owner table.
 */
UcpPick
referenceUcpVictim(const CacheLevelModel &level, const UcpPolicy &policy,
                   const std::vector<std::vector<CoreId>> &owner,
                   std::uint32_t cores, CoreId core, std::uint64_t set)
{
    const std::uint32_t slices = level.numSlices();
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    UcpPick pick;
    for (std::uint32_t s = 0; s < slices; ++s) {
        const std::uint32_t inv =
            level.slice(static_cast<SliceId>(s)).firstInvalidWay(set);
        if (inv != assoc) {
            pick.slice = static_cast<SliceId>(s);
            pick.way = inv;
            return pick;
        }
    }
    std::vector<std::uint32_t> count(cores, 0);
    for (std::uint32_t s = 0; s < slices; ++s)
        for (std::uint32_t w = 0; w < assoc; ++w)
            if (owner[s][set * assoc + w] < cores)
                ++count[owner[s][set * assoc + w]];
    bool any_over = false;
    for (CoreId c = 0; c < cores; ++c)
        any_over = any_over || count[c] > policy.quota(c);
    if (count[core] >= policy.quota(core) && count[core] > 0)
        pick.branch = UcpBranch::AtQuota;
    else
        pick.branch = any_over ? UcpBranch::OverQuotaOwner
                               : UcpBranch::GlobalLru;
    std::uint64_t best = ~std::uint64_t{0};
    for (std::uint32_t s = 0; s < slices; ++s) {
        for (std::uint32_t w = 0; w < assoc; ++w) {
            const CoreId who = owner[s][set * assoc + w];
            if (pick.branch == UcpBranch::AtQuota && who != core)
                continue;
            if (pick.branch == UcpBranch::OverQuotaOwner &&
                (who >= cores || count[who] <= policy.quota(who)))
                continue;
            const std::uint64_t stamp =
                level.slice(static_cast<SliceId>(s)).stampAt(set, w);
            if (stamp < best) {
                best = stamp;
                pick.slice = static_cast<SliceId>(s);
                pick.way = w;
            }
        }
    }
    return pick;
}

TEST(ReferenceModel, UcpVictimMatchesSliceMajorScan)
{
    constexpr std::uint32_t kCores = 4;
    CacheLevelModel level(tinyLevel(kCores)); // 4 slices x 4 ways
    level.configure(allShared(kCores));
    const std::uint32_t assoc = level.params().sliceGeom.assoc;
    const std::uint64_t sets = level.params().sliceGeom.numSets();
    // Sets 0 and 32 are the monitors' sampled sets, so the quotas
    // follow the traffic; the others only see the quotas.
    const std::uint64_t traffic_sets[] = {0, 32, 5, 17};

    // Lines already resident when the policy attaches have no owner:
    // the only way a full set can leave a core under quota with no
    // core over quota.
    for (std::uint64_t set : traffic_sets)
        for (std::uint64_t k = 0; k < 6; ++k)
            level.insert(static_cast<CoreId>(k % kCores),
                         tinyLineInSet(set, 100 + k), false);
    UcpPolicy policy(kCores, sets, kCores, assoc);
    level.setHooks(&policy);
    ASSERT_TRUE(recencyIndexMatchesSort(level));
    std::vector<std::vector<CoreId>> owner(
        kCores, std::vector<CoreId>(sets * assoc, invalidCore));

    // Footprints of different sizes give the cores different utility
    // curves, so the quotas move away from the even split.
    const std::uint64_t footprint[kCores] = {3, 6, 12, 40};
    std::uint64_t branches[4] = {0, 0, 0, 0};
    Rng rng(777);
    for (int op = 0; op < 20000; ++op) {
        ASSERT_TRUE(recencyIndexMatchesSort(level)) << "before op " << op;
        if (op % 1000 == 999)
            policy.epochBoundary();
        const auto core = static_cast<CoreId>(rng.below(kCores));
        const std::uint64_t set = traffic_sets[rng.below(4)];
        const Addr line =
            tinyLineInSet(set, core * 50 + rng.below(footprint[core]));
        const std::uint64_t draw = rng.below(100);
        if (draw < 55) {
            // A miss inserts, like the hierarchy's fill path.
            if (level.lookup(core, line, 0).hit)
                continue;
            const UcpPick want =
                referenceUcpVictim(level, policy, owner, kCores, core, set);
            const auto victim = level.slice(want.slice);
            const bool victim_valid = victim.validAt(set, want.way);
            const Addr victim_line = victim.lineAddrAt(set, want.way);
            const InsertOutcome out = level.insert(core, line, false);
            ASSERT_EQ(out.slice, want.slice) << "op " << op;
            ASSERT_EQ(level.slice(out.slice).probe(line), want.way)
                << "op " << op;
            ASSERT_EQ(out.evicted.valid, victim_valid) << "op " << op;
            if (victim_valid) {
                ASSERT_EQ(out.evicted.lineAddr, victim_line) << "op " << op;
            }
            owner[want.slice][set * assoc + want.way] = core;
            ++branches[static_cast<int>(want.branch)];
        } else if (draw < 95) {
            level.lookup(core, line, 0);
        } else {
            // Punch a hole: the next insert takes the invalid way.
            level.invalidateInSlices(level.groupSlices(core), line);
        }
    }
    ASSERT_TRUE(recencyIndexMatchesSort(level));
    ASSERT_TRUE(recencyIndexSurvivesCheckpoint(level));
    EXPECT_GT(branches[static_cast<int>(UcpBranch::InvalidWay)], 0u);
    EXPECT_GT(branches[static_cast<int>(UcpBranch::AtQuota)], 0u);
    EXPECT_GT(branches[static_cast<int>(UcpBranch::OverQuotaOwner)], 0u);
    EXPECT_GT(branches[static_cast<int>(UcpBranch::GlobalLru)], 0u);
}

} // namespace
} // namespace morphcache
