/**
 * @file
 * mc_modelcheck — exhaustive static verification of the MorphCache
 * reconfiguration engine.
 *
 * Enumerates the entire reachable topology space for the given core
 * count and proves that no decision the controller can take — under
 * any MSAT classification outcome — violates partition validity,
 * group shape, inclusiveness, or line conservation. See
 * src/check/model_checker.hh for the state-space encoding and
 * DESIGN.md section 10 for how to read a counterexample.
 *
 * Exit status: 0 when the space verifies clean, 2 when a
 * counterexample was found (printed to stdout) or a numeric option
 * is malformed, 1 on other usage errors.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include "check/model_checker.hh"
#include "common/error.hh"
#include "common/numparse.hh"
#include "perf/clock.hh"

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Exhaustively verify the MorphCache reconfiguration engine\n"
        "over the full reachable topology space.\n"
        "\n"
        "  --cores N            cores/slices per level, power of two\n"
        "                       in [2, 32] (default 8)\n"
        "  --msat HIGH,LOW      L2 MSAT thresholds (default\n"
        "                       0.46875,0.234375 = 60/128,30/128)\n"
        "  --msat-l3 HIGH,LOW   L3 MSAT thresholds (default\n"
        "                       0.26,0.20)\n"
        "  --classifications M  per-state classification\n"
        "                       enumeration: full (whole decision\n"
        "                       tree), cluster (one decision per\n"
        "                       primary event, partial-order\n"
        "                       reduction), or auto (full up to 8\n"
        "                       cores, cluster beyond; default)\n"
        "  --max-states N       stop after discovering N states\n"
        "                       (0 = unlimited, default)\n"
        "  --line-checks N      concrete line-conservation samples\n"
        "                       on a real hierarchy (default 16)\n"
        "  --inject-rule-bug [NAME]\n"
        "                       plant a decision-rule mutation and\n"
        "                       expect a counterexample; NAME is\n"
        "                       skip-forced-l3-merge (default),\n"
        "                       ignore-alignment, or\n"
        "                       skip-forced-l2-split\n"
        "  --quiet              suppress the summary line\n"
        "  --help               this text\n",
        argv0);
}

bool
parseMsat(const char *flag, std::string_view value,
          morphcache::MsatConfig &msat)
{
    const std::size_t comma = value.find(',');
    if (comma == std::string_view::npos)
        return false;
    msat.high = morphcache::flagNumber<double>(flag, value.substr(0, comma));
    msat.low = morphcache::flagNumber<double>(flag, value.substr(comma + 1));
    return msat.high > msat.low;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace morphcache;

    ModelCheckConfig config;
    config.lineChecks = 16;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--cores") {
            config.numCores = flagNumber<std::uint32_t>("--cores", next());
        } else if (arg == "--msat") {
            if (!parseMsat("--msat", next(), config.msat)) {
                std::fprintf(stderr,
                             "--msat expects HIGH,LOW with "
                             "HIGH > LOW\n");
                return 1;
            }
        } else if (arg == "--msat-l3") {
            if (!parseMsat("--msat-l3", next(), config.msatL3)) {
                std::fprintf(stderr,
                             "--msat-l3 expects HIGH,LOW with "
                             "HIGH > LOW\n");
                return 1;
            }
        } else if (arg == "--classifications") {
            try {
                config.classifications =
                    classificationModeFromName(next());
            } catch (const ConfigError &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 1;
            }
        } else if (arg == "--max-states") {
            config.maxStates =
                flagNumber<std::uint64_t>("--max-states", next());
        } else if (arg == "--line-checks") {
            config.lineChecks =
                flagNumber<std::uint64_t>("--line-checks", next());
        } else if (arg == "--inject-rule-bug") {
            // Optional value; default to the inclusion-breaking bug.
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                try {
                    config.ruleBug = ruleBugFromName(argv[++i]);
                } catch (const ConfigError &e) {
                    std::fprintf(stderr, "%s\n", e.what());
                    return 1;
                }
            } else {
                config.ruleBug = RuleBug::SkipForcedL3Merge;
            }
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }

    try {
        TopologyModelChecker checker(config);
        const double t0 = perfNowSec();
        const bool clean = checker.run();
        const double seconds = perfNowSec() - t0;

        if (!clean) {
            printCounterexample(std::cout,
                                *checker.counterexample());
            std::printf("%s time=%.2fs\n",
                        checker.summary().c_str(), seconds);
            std::printf("FAIL: the reconfiguration engine violated "
                        "its invariants\n");
            return 2;
        }
        if (config.ruleBug != RuleBug::None) {
            std::printf("%s time=%.2fs\n",
                        checker.summary().c_str(), seconds);
            std::printf(
                "FAIL: planted rule bug '%s' was NOT detected — "
                "the checker has lost its teeth\n",
                ruleBugName(config.ruleBug));
            return 2;
        }
        if (!quiet) {
            std::printf("%s time=%.2fs\n",
                        checker.summary().c_str(), seconds);
            std::printf("OK: every reachable proposal satisfies "
                        "partition validity, group shape, "
                        "inclusiveness, and line conservation\n");
        }
        return 0;
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
