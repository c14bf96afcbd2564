#include "check/invariant.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/textfmt.hh"
#include "hierarchy/hierarchy.hh"

namespace morphcache {

CheckPolicy
checkPolicyFromName(const std::string &name)
{
    if (name == "off")
        return CheckPolicy::Off;
    if (name == "log")
        return CheckPolicy::Log;
    if (name == "recover")
        return CheckPolicy::Recover;
    if (name == "abort")
        return CheckPolicy::Abort;
    throw ConfigError("unknown check policy '" + name +
                      "' (expected off|log|recover|abort)");
}

const char *
checkPolicyName(CheckPolicy policy)
{
    switch (policy) {
      case CheckPolicy::Off: return "off";
      case CheckPolicy::Log: return "log";
      case CheckPolicy::Recover: return "recover";
      case CheckPolicy::Abort: return "abort";
    }
    return "?";
}

InvariantChecker::InvariantChecker(CheckPolicy policy)
    : policy_(policy)
{
}

std::vector<Violation>
InvariantChecker::checkTopology(const Topology &topology,
                                ShapeRule rule) const
{
    return topologyFindings(topology, rule);
}

InvariantChecker::LineSnapshot
InvariantChecker::snapshot(const Hierarchy &hierarchy)
{
    LineSnapshot snap;
    const std::uint32_t n = hierarchy.numCores();
    snap.l2Lines.reserve(n);
    snap.l3Lines.reserve(n);
    for (std::uint32_t s = 0; s < n; ++s) {
        snap.l2Lines.push_back(
            hierarchy.l2().slice(static_cast<SliceId>(s))
                .validLineCount());
        snap.l3Lines.push_back(
            hierarchy.l3().slice(static_cast<SliceId>(s))
                .validLineCount());
    }
    return snap;
}

namespace {

void
checkLevelConservation(const char *level_name,
                       const CacheLevelModel &level,
                       const std::vector<std::uint64_t> &before,
                       std::vector<Violation> &out)
{
    const std::uint64_t capacity = level.params().sliceGeom.numLines();
    for (std::uint32_t s = 0; s < level.numSlices(); ++s) {
        const std::uint64_t now =
            level.slice(static_cast<SliceId>(s)).validLineCount();
        if (now > capacity) {
            out.push_back(Violation{
                InvariantKind::SliceOverflow,
                strFormat("%s slice %u holds %llu lines, capacity %llu",
                          level_name, s,
                          static_cast<unsigned long long>(now),
                          static_cast<unsigned long long>(capacity))});
        }
        if (s < before.size() && now > before[s]) {
            out.push_back(Violation{
                InvariantKind::LineConservation,
                strFormat("%s slice %u grew from %llu to %llu valid "
                          "lines across a reconfiguration",
                          level_name, s,
                          static_cast<unsigned long long>(before[s]),
                          static_cast<unsigned long long>(now))});
        }
    }
}

} // namespace

std::vector<Violation>
InvariantChecker::checkConservation(const Hierarchy &hierarchy,
                                    const LineSnapshot &before) const
{
    std::vector<Violation> out;
    checkLevelConservation("L2", hierarchy.l2(), before.l2Lines, out);
    checkLevelConservation("L3", hierarchy.l3(), before.l3Lines, out);
    return out;
}

std::vector<Violation>
InvariantChecker::checkOccupancy(const Hierarchy &hierarchy) const
{
    std::vector<Violation> out;
    checkLevelConservation("L2", hierarchy.l2(), {}, out);
    checkLevelConservation("L3", hierarchy.l3(), {}, out);
    return out;
}

bool
InvariantChecker::report(const char *where,
                         const std::vector<Violation> &violations)
{
    ++stats_.checksRun;
    if (violations.empty())
        return false;
    stats_.violations += violations.size();
    for (const Violation &v : violations) {
        stats_.byKind[static_cast<std::size_t>(v.kind)] += 1;
        if (policy_ != CheckPolicy::Off) {
            warn("invariant violation [%s] at %s: %s",
                 invariantKindName(v.kind), where,
                 v.message.c_str());
        }
    }
    if (policy_ == CheckPolicy::Abort) {
        panic("invariant violation at %s: %s (checking policy "
              "'abort')",
              where, violations.front().message.c_str());
    }
    return true;
}

} // namespace morphcache
