#include "runner/run_factory.hh"

#include <array>
#include <cstdio>
#include <optional>
#include <string_view>

#include "baselines/dsr.hh"
#include "baselines/pipp.hh"
#include "baselines/ucp.hh"
#include "check/invariant.hh"
#include "common/error.hh"
#include "common/numparse.hh"
#include "sim/config.hh"
#include "workload/trace.hh"

namespace morphcache {

namespace {

std::unique_ptr<Workload>
makeWorkload(const RunSpec &spec, const GeneratorParams &gen)
{
    const auto colon = spec.workload.find(':');
    if (colon == std::string::npos)
        throw ConfigError("bad workload '" + spec.workload + "'");
    const std::string kind = spec.workload.substr(0, colon);
    const std::string arg = spec.workload.substr(colon + 1);

    if (kind == "mix") {
        const std::optional<std::uint32_t> index =
            parseNumber<std::uint32_t>(arg);
        if (!index)
            throw ConfigError("bad mix workload '" + spec.workload + "'");
        char name[24];
        std::snprintf(name, sizeof(name), "MIX %02u", *index);
        MixSpec mix = mixByName(name);
        if (spec.cores < mix.benchmarks.size())
            mix.benchmarks.resize(spec.cores);
        return std::make_unique<MixWorkload>(mix, gen, spec.seed);
    }
    if (kind == "parsec") {
        const BenchmarkProfile &profile = profileByName(arg);
        if (!profile.multithreaded) {
            throw ConfigError("'" + arg +
                              "' is not a PARSEC benchmark");
        }
        return std::make_unique<MultithreadedWorkload>(
            profile, spec.cores, gen, spec.seed);
    }
    if (kind == "trace") {
        Trace trace = readTrace(arg);
        return std::make_unique<TraceWorkload>(std::move(trace));
    }
    throw ConfigError("unknown workload kind '" + kind + "'");
}

/**
 * The (x:y:z) of a "static:X:Y:Z" scheme: exactly three decimal
 * numbers whose product is the core count, so no two spellings
 * (say "static:2:2:1" and "static:2:2:1junk") name one simulation
 * under two config hashes.
 */
std::array<std::uint32_t, 3>
parseStaticTriple(const std::string &scheme, std::uint32_t cores)
{
    std::array<std::uint32_t, 3> xyz{};
    std::string_view rest = std::string_view(scheme).substr(
        std::string_view("static:").size());
    for (std::uint32_t &value : xyz) {
        const bool last = &value == &xyz.back();
        const std::size_t end = last ? rest.size() : rest.find(':');
        const std::optional<std::uint32_t> parsed =
            end == std::string_view::npos
                ? std::nullopt
                : parseNumber<std::uint32_t>(rest.substr(0, end));
        if (!parsed)
            throw ConfigError("bad static scheme '" + scheme + "'");
        value = *parsed;
        rest.remove_prefix(last ? end : end + 1);
    }
    if (std::uint64_t{xyz[0]} * xyz[1] * xyz[2] != cores) {
        throw ConfigError("static scheme '" + scheme +
                          "' does not describe a " +
                          std::to_string(cores) + "-core topology");
    }
    return xyz;
}

/**
 * The memory system for a scheme name; `morph_config` applies to the
 * morph scheme only.
 */
std::unique_ptr<MemorySystem>
makeSchemeSystem(const std::string &scheme,
                 const HierarchyParams &hier, std::uint32_t cores,
                 const MorphConfig &morph_config)
{
    if (scheme == "morph")
        return std::make_unique<MorphCacheSystem>(hier, morph_config);
    if (scheme == "pipp")
        return makePippSystem(hier);
    if (scheme == "dsr")
        return makeDsrSystem(hier);
    if (scheme == "ucp")
        return makeUcpSystem(hier);
    if (scheme.rfind("static:", 0) == 0) {
        const auto [x, y, z] = parseStaticTriple(scheme, cores);
        return std::make_unique<StaticTopologySystem>(
            hier, Topology::symmetric(cores, x, y, z));
    }
    throw ConfigError("unknown scheme '" + scheme + "'");
}

} // namespace

BuiltRun
buildRun(const RunSpec &spec)
{
    HierarchyParams hier = spec.paperScale
                               ? paperScaleHierarchy(spec.cores)
                               : fastScaleHierarchy(spec.cores);
    // A bad geometry (zero cores) is a typed ConfigError here, before
    // the workload generators assert on it.
    hier.validate();
    const GeneratorParams gen = generatorFor(hier);

    BuiltRun run;
    run.workload = makeWorkload(spec, gen);
    run.sharedSpace = run.workload->sharedAddressSpace();
    hier.coherence = run.sharedSpace;

    MorphConfig morph;
    morph.checkPolicy = checkPolicyFromName(spec.checkPolicy);
    morph.quarantineCleanEpochs = spec.quarantine;
    morph.faults = spec.faults;

    run.system = makeSchemeSystem(spec.scheme, hier, spec.cores,
                                  morph);
    run.sim.epochs = spec.epochs;
    run.sim.refsPerEpochPerCore = spec.refs;
    return run;
}

} // namespace morphcache
