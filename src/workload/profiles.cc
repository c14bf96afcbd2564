#include "workload/profiles.hh"

#include "common/error.hh"

namespace morphcache {

namespace {

// Table 4, SPEC CPU 2006 side. Characteristics were collected by
// the authors on a single core with a private 256 KB L2 slice and
// 1 MB L3 slice; class in parentheses in the paper:
// 0 = low L2 / low L3, 1 = low L2 / high L3,
// 2 = high L2 / low L3, 3 = high L2 / high L3.
std::vector<BenchmarkProfile>
makeSpec()
{
    // name,          l2Acf l2sT  l3Acf l3sT  cls
    return {
        {"GemsFDTD",   0.34, 0.14, 0.46, 0.25, 0, false, 0, 0, 0},
        {"astar",      0.42, 0.06, 0.56, 0.02, 1, false, 0, 0, 0},
        {"bwaves",     0.56, 0.05, 0.43, 0.17, 2, false, 0, 0, 0},
        {"bzip2",      0.59, 0.18, 0.46, 0.22, 2, false, 0, 0, 0},
        {"cactusADM",  0.74, 0.16, 0.48, 0.04, 2, false, 0, 0, 0},
        {"calculix",   0.62, 0.02, 0.56, 0.02, 3, false, 0, 0, 0},
        {"dealII",     0.58, 0.07, 0.71, 0.19, 3, false, 0, 0, 0},
        {"gamess",     0.41, 0.09, 0.38, 0.11, 0, false, 0, 0, 0},
        {"gcc",        0.59, 0.18, 0.66, 0.13, 3, false, 0, 0, 0},
        {"gobmk",      0.73, 0.13, 0.45, 0.01, 2, false, 0, 0, 0},
        {"gromacs",    0.39, 0.14, 0.77, 0.20, 1, false, 0, 0, 0},
        {"h264ref",    0.65, 0.02, 0.55, 0.04, 3, false, 0, 0, 0},
        {"hmmer",      0.31, 0.19, 0.69, 0.11, 1, false, 0, 0, 0},
        {"lbm",        0.44, 0.19, 0.42, 0.08, 0, false, 0, 0, 0},
        {"leslie3d",   0.56, 0.04, 0.34, 0.12, 2, false, 0, 0, 0},
        {"libquantum", 0.26, 0.14, 0.18, 0.11, 0, false, 0, 0, 0},
        {"mcf",        0.38, 0.16, 0.51, 0.04, 1, false, 0, 0, 0},
        {"milc",       0.42, 0.02, 0.59, 0.05, 1, false, 0, 0, 0},
        {"namd",       0.55, 0.04, 0.48, 0.12, 2, false, 0, 0, 0},
        {"omnetpp",    0.47, 0.03, 0.58, 0.08, 1, false, 0, 0, 0},
        {"perlbench",  0.31, 0.08, 0.42, 0.01, 0, false, 0, 0, 0},
        {"povray",     0.58, 0.11, 0.41, 0.07, 2, false, 0, 0, 0},
        {"sjeng",      0.56, 0.02, 0.41, 0.06, 2, false, 0, 0, 0},
        {"soplex",     0.53, 0.07, 0.47, 0.07, 2, false, 0, 0, 0},
        {"sphinx",     0.49, 0.04, 0.63, 0.11, 1, false, 0, 0, 0},
        {"tonto",      0.63, 0.12, 0.57, 0.06, 3, false, 0, 0, 0},
        {"wrf",        0.46, 0.07, 0.73, 0.14, 1, false, 0, 0, 0},
        {"xalancbmk",  0.58, 0.03, 0.57, 0.03, 3, false, 0, 0, 0},
        {"zeusmp",     0.54, 0.05, 0.44, 0.17, 2, false, 0, 0, 0},
    };
}

// Table 4, PARSEC side (collected on a 16-core CMP, per-core
// slices; temporal sigma averaged across threads, spatial sigma
// across threads within an epoch). The sharedFraction column is
// not in the paper; values follow its qualitative discussion.
std::vector<BenchmarkProfile>
makeParsec()
{
    // name,         l2Acf l2sT  l3Acf l3sT cls  mt  l2sS  l3sS shr
    return {
        {"blackscholes", 0.23, 0.04, 0.18, 0.02, -1, true, 0.07,
         0.05, 0.10},
        {"bodytrack",    0.38, 0.07, 0.22, 0.04, -1, true, 0.03,
         0.02, 0.15},
        {"canneal",      0.65, 0.13, 0.58, 0.07, -1, true, 0.18,
         0.14, 0.40},
        {"dedup",        0.47, 0.05, 0.74, 0.16, -1, true, 0.08,
         0.12, 0.50},
        {"facesim",      0.41, 0.11, 0.64, 0.17, -1, true, 0.14,
         0.08, 0.35},
        {"ferret",       0.59, 0.14, 0.58, 0.06, -1, true, 0.18,
         0.08, 0.35},
        {"fluidanimate", 0.47, 0.04, 0.41, 0.03, -1, true, 0.11,
         0.19, 0.20},
        {"freqmine",     0.61, 0.13, 0.71, 0.14, -1, true, 0.13,
         0.20, 0.50},
        {"streamcluster", 0.79, 0.28, 0.61, 0.16, -1, true, 0.12,
         0.07, 0.25},
        {"swaptions",    0.43, 0.05, 0.37, 0.04, -1, true, 0.11,
         0.02, 0.10},
        {"vips",         0.62, 0.09, 0.57, 0.06, -1, true, 0.15,
         0.12, 0.25},
        {"x264",         0.55, 0.07, 0.52, 0.13, -1, true, 0.10,
         0.18, 0.35},
    };
}

std::vector<MixSpec>
makeMixes()
{
    // Table 5; short names expanded to the canonical Table 4 names
    // ("leslie" = leslie3d, "cactus" = cactusADM, "libm" = lbm,
    // "libq" = libquantum, "perl" = perlbench, "Gems" = GemsFDTD,
    // "h264" = h264ref, "xalanc" = xalancbmk, "gomacs" = gromacs).
    return {
        {"MIX 01", {0, 0, 10, 6},
         {"calculix", "bwaves", "leslie3d", "namd", "sjeng", "bzip2",
          "povray", "soplex", "cactusADM", "tonto", "xalancbmk",
          "zeusmp", "dealII", "gcc", "gobmk", "h264ref"}},
        {"MIX 02", {0, 4, 6, 6},
         {"dealII", "gcc", "leslie3d", "namd", "sjeng", "zeusmp",
          "bzip2", "calculix", "gobmk", "h264ref", "gromacs",
          "hmmer", "wrf", "milc", "tonto", "xalancbmk"}},
        {"MIX 03", {0, 8, 4, 4},
         {"gromacs", "hmmer", "mcf", "sphinx", "wrf", "astar",
          "milc", "omnetpp", "namd", "cactusADM", "gobmk", "soplex",
          "gcc", "calculix", "h264ref", "tonto"}},
        {"MIX 04", {0, 8, 8, 0},
         {"gromacs", "hmmer", "mcf", "sphinx", "wrf", "astar",
          "milc", "omnetpp", "bwaves", "namd", "leslie3d", "sjeng",
          "zeusmp", "bzip2", "povray", "soplex"}},
        {"MIX 05", {2, 2, 6, 6},
         {"gamess", "lbm", "sphinx", "astar", "bwaves", "namd",
          "sjeng", "gobmk", "povray", "soplex", "dealII", "gcc",
          "calculix", "h264ref", "tonto", "xalancbmk"}},
        {"MIX 06", {2, 6, 2, 6},
         {"dealII", "libquantum", "perlbench", "gromacs", "hmmer",
          "mcf", "wrf", "astar", "milc", "sjeng", "gobmk", "gcc",
          "calculix", "h264ref", "tonto", "xalancbmk"}},
        {"MIX 07", {4, 0, 6, 6},
         {"gcc", "lbm", "libquantum", "perlbench", "cactusADM",
          "zeusmp", "bzip2", "gobmk", "povray", "soplex", "dealII",
          "gamess", "calculix", "h264ref", "tonto", "xalancbmk"}},
        {"MIX 08", {4, 4, 4, 4},
         {"hmmer", "mcf", "libquantum", "wrf", "omnetpp", "GemsFDTD",
          "bwaves", "bzip2", "gobmk", "perlbench", "povray", "gcc",
          "calculix", "lbm", "h264ref", "xalancbmk"}},
        {"MIX 09", {4, 4, 8, 0},
         {"GemsFDTD", "gamess", "lbm", "libquantum", "astar",
          "gromacs", "hmmer", "milc", "bwaves", "leslie3d", "sjeng",
          "povray", "gobmk", "soplex", "bzip2", "zeusmp"}},
        {"MIX 10", {4, 6, 0, 6},
         {"perlbench", "hmmer", "mcf", "wrf", "astar", "milc",
          "GemsFDTD", "omnetpp", "dealII", "lbm", "gcc", "calculix",
          "h264ref", "gamess", "tonto", "xalancbmk"}},
        {"MIX 11", {4, 8, 0, 4},
         {"lbm", "libquantum", "gromacs", "hmmer", "mcf", "sphinx",
          "wrf", "gamess", "astar", "milc", "omnetpp", "gcc",
          "GemsFDTD", "h264ref", "tonto", "xalancbmk"}},
        {"MIX 12", {4, 8, 4, 0},
         {"gamess", "lbm", "libquantum", "perlbench", "gromacs",
          "hmmer", "mcf", "sphinx", "wrf", "astar", "milc",
          "omnetpp", "sjeng", "zeusmp", "gobmk", "soplex"}},
    };
}

} // namespace

const std::vector<BenchmarkProfile> &
specProfiles()
{
    static const std::vector<BenchmarkProfile> profiles = makeSpec();
    return profiles;
}

const std::vector<BenchmarkProfile> &
parsecProfiles()
{
    static const std::vector<BenchmarkProfile> profiles = makeParsec();
    return profiles;
}

const BenchmarkProfile &
profileByName(const std::string &name)
{
    for (const auto &profile : specProfiles()) {
        if (name == profile.name)
            return profile;
    }
    for (const auto &profile : parsecProfiles()) {
        if (name == profile.name)
            return profile;
    }
    throw ConfigError("unknown benchmark '" + name + "'");
}

const std::vector<MixSpec> &
mixSpecs()
{
    static const std::vector<MixSpec> mixes = makeMixes();
    return mixes;
}

const MixSpec &
mixByName(const std::string &name)
{
    for (const auto &mix : mixSpecs()) {
        if (name == mix.name)
            return mix;
    }
    throw ConfigError("unknown mix '" + name + "'");
}

} // namespace morphcache
