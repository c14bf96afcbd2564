#include "morph/proposal.hh"

#include <cstdio>

#include "common/error.hh"
#include "hierarchy/cache_level.hh"

namespace morphcache {

MergeSignals
CacheLevelSignals::mergeSignals(const std::vector<SliceId> &a,
                                const std::vector<SliceId> &b) const
{
    MergeSignals s;
    s.utilA = model_.acfvs().utilization(a);
    s.utilB = model_.acfvs().utilization(b);
    s.fillPressureA = model_.fillPressure(a);
    s.fillPressureB = model_.fillPressure(b);
    return s;
}

SplitSignals
CacheLevelSignals::splitSignals(const std::vector<SliceId> &first,
                                const std::vector<SliceId> &second) const
{
    SplitSignals s;
    s.utilFirst = model_.acfvs().utilization(first);
    s.utilSecond = model_.acfvs().utilization(second);
    return s;
}

double
CacheLevelSignals::overlap(const std::vector<SliceId> &a,
                           const std::vector<SliceId> &b) const
{
    return model_.acfvs().overlap(a, b);
}

double
CacheLevelSignals::utilization(const std::vector<SliceId> &slices) const
{
    return model_.acfvs().utilization(slices);
}

std::string
proposalEventName(const ProposalEvent &event)
{
    const char *kind = "";
    switch (event.kind) {
      case ProposalEvent::Kind::L2Merge: kind = "l2 merge"; break;
      case ProposalEvent::Kind::L3Merge: kind = "l3 merge"; break;
      case ProposalEvent::Kind::ForcedL3Merge:
        kind = "l3 merge (forced by inclusion)";
        break;
      case ProposalEvent::Kind::L2Split: kind = "l2 split"; break;
      case ProposalEvent::Kind::L3Split: kind = "l3 split"; break;
      case ProposalEvent::Kind::ForcedL2Split:
        kind = "l2 split (forced by inclusion)";
        break;
    }
    char buf[96];
    switch (event.kind) {
      case ProposalEvent::Kind::L2Merge:
      case ProposalEvent::Kind::L3Merge:
      case ProposalEvent::Kind::ForcedL3Merge:
        std::snprintf(buf, sizeof(buf), "%s [%u..%u]+[%u..%u]", kind,
                      event.aFirst, event.aLast, event.bFirst,
                      event.bLast);
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%s [%u..%u]", kind,
                      event.aFirst, event.aLast);
        break;
    }
    return buf;
}

RuleBug
ruleBugFromName(const std::string &name)
{
    if (name == "none" || name == "0")
        return RuleBug::None;
    if (name == "skip-forced-l3-merge" || name == "1")
        return RuleBug::SkipForcedL3Merge;
    if (name == "ignore-alignment" || name == "2")
        return RuleBug::IgnoreAlignment;
    if (name == "skip-forced-l2-split" || name == "3")
        return RuleBug::SkipForcedL2Split;
    throw ConfigError("unknown rule bug '" + name +
                      "' (skip-forced-l3-merge, ignore-alignment, "
                      "skip-forced-l2-split, or 1..3)");
}

const char *
ruleBugName(RuleBug bug)
{
    switch (bug) {
      case RuleBug::None: return "none";
      case RuleBug::SkipForcedL3Merge: return "skip-forced-l3-merge";
      case RuleBug::IgnoreAlignment: return "ignore-alignment";
      case RuleBug::SkipForcedL2Split: return "skip-forced-l2-split";
    }
    return "none";
}

} // namespace morphcache
