/**
 * @file
 * End-to-end tests of tools/mc_analyze (the AST-level semantic
 * analyzer) driven through python3, mirroring the mc_benchdiff
 * harness idiom in perf_test.cc.
 *
 * Every pass gets a mutation-catching pair: a seeded-bug fixture
 * the analyzer MUST flag and a clean fixture it must stay silent
 * on — so a regression that blinds a pass fails these tests, not
 * just the lint run it was supposed to protect. The allowlist,
 * cache, clang-extraction selftest, and the deliberate-omission
 * drill (add a member to a real checkpointed class, prove the
 * analyzer objects) ride the same harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace {

bool
havePython()
{
    return std::system("python3 -c 'pass' > /dev/null 2>&1") == 0;
}

struct RunResult
{
    int exit = -1;
    std::string output;
};

/**
 * Run mc_analyze with `args`, capturing exit code and output. The
 * capture file is per process: ctest -j runs these tests side by
 * side in one temp directory.
 */
RunResult
runAnalyze(const std::string &args)
{
    const std::string out = ::testing::TempDir() + "mc_analyze_out_" +
                            std::to_string(getpid()) + ".txt";
    const std::string cmd = "python3 " MC_SOURCE_DIR
                            "/tools/mc_analyze " +
                            args + " > '" + out + "' 2>&1";
    const int status = std::system(cmd.c_str());
    RunResult r;
    r.exit = status < 0 ? status : WEXITSTATUS(status);
    std::ifstream in(out);
    std::stringstream ss;
    ss << in.rdbuf();
    r.output = ss.str();
    std::remove(out.c_str());
    return r;
}

/** Fixture-mode run against files under tests/analyze_fixtures
 *  (space-separated names), with the repo allowlist replaced by
 *  `allowlist` (empty = none; the real tree's entries must not leak
 *  into fixture runs). Fixture mode checks each fixture as if its
 *  directory were src/. */
RunResult
runFixture(const std::string &names, const std::string &allowlist)
{
    std::string paths;
    std::istringstream in(names);
    for (std::string name; in >> name;)
        paths += " tests/analyze_fixtures/" + name;
    return runAnalyze("--repo-root " MC_SOURCE_DIR
                      " --fixture-mode --cache-dir '' --allowlist '" +
                      (allowlist.empty() ? "/dev/null" : allowlist) +
                      "'" + paths);
}

/** Whether `output` reports `site` (its allowlist key suffix). */
bool
reportsSite(const std::string &output, const std::string &site)
{
    return output.find("(site: " + site + ")") != std::string::npos;
}

std::string
writeTempFile(const std::string &name, const std::string &content)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(Analyze, CleanTreePasses)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult r = runAnalyze(
        "--repo-root " MC_SOURCE_DIR " --cache-dir '' -q");
    EXPECT_EQ(r.exit, 0) << r.output;
}

TEST(Analyze, WrapSafetyFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("wrap_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // All three shapes: binary, compound, decrement.
    EXPECT_NE(bug.output.find("busyUntil - now"), std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("cycleBudget -= latency"),
              std::string::npos);
    EXPECT_NE(bug.output.find("satDec"), std::string::npos);

    const RunResult clean = runFixture("wrap_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, SerializationFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("ckpt_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // Never-serialized member, save-only member, and a derived
    // annotation whose reconstruction site does not exist.
    EXPECT_NE(bug.output.find("missing_"), std::string::npos);
    EXPECT_NE(bug.output.find("halfDone_"), std::string::npos);
    EXPECT_NE(bug.output.find("badSite_"), std::string::npos);

    const RunResult clean = runFixture("ckpt_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, NestedRecordFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // A record held by a checkpointed class: a field neither walk
    // writes and a field only saveState writes.
    const RunResult bug = runFixture("nested_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    EXPECT_NE(bug.output.find("Store::Row::lostField"), std::string::npos);
    EXPECT_NE(bug.output.find("Store::Row::halfRow"), std::string::npos);

    const RunResult clean = runFixture("nested_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, NestedShadowFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // A local named like a held record's field does not write the
    // field; only member reads do.
    const RunResult bug = runFixture("nested_shadow_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    EXPECT_NE(bug.output.find("Store::Row::dirty"), std::string::npos);

    const RunResult clean = runFixture("nested_shadow_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, DeterminismFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("det_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // All four sub-checks fire on the one fixture.
    EXPECT_NE(bug.output.find("unordered container"),
              std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("rand()"), std::string::npos);
    EXPECT_NE(bug.output.find("[wall-clock]"), std::string::npos);
    EXPECT_NE(bug.output.find("[stats-bypass]"), std::string::npos);

    const RunResult clean = runFixture("det_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, ConcurrencyFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("conc_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // Member write and by-reference-capture write, both from the
    // worker lambda.
    EXPECT_NE(bug.output.find("completed_"), std::string::npos)
        << bug.output;
    EXPECT_NE(bug.output.find("sharedTally"), std::string::npos);

    const RunResult clean = runFixture("conc_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, WritePathFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("write_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    // Write-mode fopen, raw write/publish/flush/mkdir syscalls, and
    // an ofstream: every way around the Vfs seam.
    for (const char *site :
         {"dumpStats:fopen", "dumpStats:fwrite", "publish:open",
          "publish:fsync", "publish:rename", "publish:unlink",
          "prepare:mkdir", "prepare:std::ofstream"})
        EXPECT_TRUE(reportsSite(bug.output, site))
            << site << "\n" << bug.output;

    // Read-mode fopen, ifstream, seam calls with a receiver, and a
    // member helper named write() stay silent.
    const RunResult clean = runFixture("write_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, GlobalsFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("glob_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    for (const char *name :
         {"cellsRun", "lastSeeds", "epochCursor", "scratchCycle"})
        EXPECT_TRUE(reportsSite(bug.output, name))
            << name << "\n" << bug.output;

    const RunResult clean = runFixture("glob_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, IncludesFixtures)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // Checked as if tests/analyze_fixtures were src/.
    const RunResult bug = runFixture("inc_bug.cc inc_bug.hh", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    EXPECT_TRUE(reportsSite(bug.output, "bits/stdc++.h"))
        << bug.output;
    EXPECT_TRUE(reportsSite(bug.output, "unresolved:common/missing.hh"));
    EXPECT_TRUE(reportsSite(bug.output, "own-header-first"));
    EXPECT_NE(bug.output.find("'MORPHCACHE_INC_BUG_HH'"),
              std::string::npos);

    const RunResult clean = runFixture("inc_clean.cc inc_clean.hh", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, CallsOutsideFunctionBodiesAreSeen)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // A namespace-scope initializer, a namespace-scope lambda, a
    // default member initializer, an in-class static initializer, a
    // default argument, and a constructor initializer list.
    const RunResult bug = runFixture("gap_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    for (const char *at :
         {"gap_bug.cc:13: [determinism]", "gap_bug.cc:17: [wall-clock]",
          "gap_bug.cc:23: [determinism]", "gap_bug.cc:26: [determinism]",
          "gap_bug.cc:29: [determinism]", "gap_bug.cc:32: [determinism]"})
        EXPECT_NE(bug.output.find(at), std::string::npos)
            << at << "\n" << bug.output;

    // The same shapes fed from seeds, and accessor declarations
    // named time()/clock().
    const RunResult clean = runFixture("gap_clean.cc", "");
    EXPECT_EQ(clean.exit, 0) << clean.output;
}

TEST(Analyze, EveryRetiredRegexPatternIsACallSite)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const RunResult bug = runFixture("parity_bug.cc", "");
    EXPECT_EQ(bug.exit, 1) << bug.output;
    for (const char *site :
         {"entropy:srand", "entropy:rand", "entropy:random_device",
          "entropy:time", "entropy:clock",
          "clocks:std::chrono::steady_clock::now",
          "clocks:std::chrono::system_clock::now",
          "clocks:std::chrono::high_resolution_clock::now",
          "clocks:gettimeofday", "clocks:clock_gettime",
          "clocks:timespec_get", "stdoutWriters:cout",
          "stdoutWriters:printf", "stdoutWriters:fprintf",
          "stdoutWriters:puts", "stdoutWriters:putchar"})
        EXPECT_TRUE(reportsSite(bug.output, site))
            << site << "\n" << bug.output;
}

TEST(Analyze, AllowlistPermitsAuditedSites)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string allow = writeTempFile(
        "analyze_allow_ok.txt",
        "concurrency:tests/analyze_fixtures/conc_bug.cc:"
        "<lambda>:completed_ -- audited: test entry\n"
        "concurrency:tests/analyze_fixtures/conc_bug.cc:"
        "<lambda>:sharedTally -- audited: test entry\n");
    const RunResult r = runFixture("conc_bug.cc", allow);
    EXPECT_EQ(r.exit, 0) << r.output;
}

TEST(Analyze, AllowlistStaleAndMalformedEntriesFail)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string stale = writeTempFile(
        "analyze_allow_stale.txt",
        "wrap-safety:src/nonexistent.cc:foo:a-b -- gone\n");
    const RunResult r1 = runFixture("wrap_clean.cc", stale);
    EXPECT_EQ(r1.exit, 1) << r1.output;
    EXPECT_NE(r1.output.find("stale entry"), std::string::npos);

    const std::string malformed = writeTempFile(
        "analyze_allow_bad.txt", "no separator or key here\n");
    const RunResult r2 = runFixture("wrap_clean.cc", malformed);
    EXPECT_EQ(r2.exit, 1) << r2.output;
    EXPECT_NE(r2.output.find("malformed"), std::string::npos);
}

TEST(Analyze, CacheHitsAndContentInvalidation)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    const std::string src = writeTempFile(
        "cache_probe.cc",
        readFile(MC_SOURCE_DIR
                 "/tests/analyze_fixtures/wrap_clean.cc"));
    const std::string cache = ::testing::TempDir() + "an_cache";
    // TempDir is not per-run: a cache dir left by a previous
    // execution would make the "cold" run hit (same content, same
    // hash key). Start from nothing.
    std::filesystem::remove_all(cache);
    const std::string args = "--repo-root '" +
                             ::testing::TempDir() +
                             "' --fixture-mode --allowlist "
                             "/dev/null --cache-dir '" +
                             cache + "' cache_probe.cc";

    const RunResult cold = runAnalyze(args);
    EXPECT_EQ(cold.exit, 0) << cold.output;
    EXPECT_NE(cold.output.find("(0 cached, 1 parsed)"),
              std::string::npos)
        << cold.output;

    const RunResult warm = runAnalyze(args);
    EXPECT_NE(warm.output.find("(1 cached, 0 parsed)"),
              std::string::npos)
        << warm.output;

    // Any byte change misses: the key is the content hash.
    std::ofstream(src, std::ios::app) << "// touched\n";
    const RunResult touched = runAnalyze(args);
    EXPECT_NE(touched.output.find("(0 cached, 1 parsed)"),
              std::string::npos)
        << touched.output;
}

TEST(Analyze, AddingUnserializedMemberFailsTheBuild)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // The acceptance drill, against *real* code: take a checkpointed
    // class (AcfvBank), add a member, leave saveState/loadState
    // untouched — the analyzer must object.
    std::string header = readFile(MC_SOURCE_DIR "/src/acf/acfv.hh");
    const std::string anchor = "std::vector<std::uint64_t> words_;";
    const std::size_t at = header.find(anchor);
    ASSERT_NE(at, std::string::npos)
        << "acfv.hh anchor moved; update this test";
    header.insert(at + anchor.size(),
                  "\n    std::uint64_t newField_ = 0;");
    writeTempFile("omission_probe.hh", header);

    const RunResult r = runAnalyze(
        "--repo-root '" + ::testing::TempDir() +
        "' --fixture-mode --cache-dir '' --allowlist /dev/null "
        "--checks serialization omission_probe.hh");
    EXPECT_EQ(r.exit, 1) << r.output;
    EXPECT_NE(r.output.find("newField_"), std::string::npos)
        << r.output;
}

TEST(Analyze, ClangExtractionSelftest)
{
    if (!havePython())
        GTEST_SKIP() << "python3 not available";
    // The clang JSON decl-extraction path, pinned without a clang
    // binary: a synthetic -ast-dump=json fixture with sticky
    // locations and an other-file decl that must be filtered out.
    const RunResult r = runAnalyze(
        "--selftest-clang-extract " MC_SOURCE_DIR
        "/tests/analyze_fixtures/clang_dump.json");
    EXPECT_EQ(r.exit, 0) << r.output;
    EXPECT_NE(r.output.find("aliases: Cycle -> std::uint64_t"),
              std::string::npos)
        << r.output;
    EXPECT_NE(
        r.output.find("members: Bus.busyUntil_ -> std::vector"),
        std::string::npos);
    EXPECT_NE(r.output.find("params: wait.now -> Cycle"),
              std::string::npos);
    EXPECT_NE(r.output.find("rets: latency -> Cycle"),
              std::string::npos);
    // Sticky-file tracking: the /usr/include decl is not ours.
    EXPECT_EQ(r.output.find("excluded_"), std::string::npos)
        << r.output;
}
