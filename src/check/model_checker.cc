#include "check/model_checker.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hh"
#include "common/logging.hh"
#include "hierarchy/hierarchy.hh"

namespace morphcache {

namespace {

/** Pack one oracle query into a key (6 bits per range bound). */
std::uint32_t
packQuery(bool is_l3, bool is_merge, std::uint32_t a_first,
          std::uint32_t a_last, std::uint32_t b_first,
          std::uint32_t b_last)
{
    return a_first | a_last << 6 | b_first << 12 | b_last << 18 |
           (is_merge ? 1u << 24 : 0u) | (is_l3 ? 1u << 25 : 0u);
}

bool
isMergeKey(std::uint32_t key)
{
    return (key >> 24) & 1;
}

bool
isL3Key(std::uint32_t key)
{
    return (key >> 25) & 1;
}

} // namespace

std::string
oracleQueryName(std::uint32_t key)
{
    const std::uint32_t a_first = key & 0x3f;
    const std::uint32_t a_last = (key >> 6) & 0x3f;
    const std::uint32_t b_first = (key >> 12) & 0x3f;
    const std::uint32_t b_last = (key >> 18) & 0x3f;
    const bool is_merge = isMergeKey(key);
    const bool is_l3 = isL3Key(key);
    std::ostringstream os;
    os << (is_l3 ? "l3" : "l2") << (is_merge ? " merge" : " split");
    os << " [" << a_first << ".." << a_last << "]";
    if (is_merge)
        os << "+[" << b_first << ".." << b_last << "]";
    return os.str();
}

void
ClassificationOracle::beginRun(const std::vector<char> &script)
{
    trail_.clear();
    script_ = script;
    targeted_ = false;
}

void
ClassificationOracle::beginTargetedRun(std::uint32_t yes_key,
                                       bool yes_all_l2_splits)
{
    trail_.clear();
    script_.clear();
    targeted_ = true;
    yesKey_ = yes_key;
    yesAllL2Splits_ = yes_all_l2_splits;
}

bool
ClassificationOracle::answer(std::uint32_t key)
{
    // The trail is tiny (one entry per distinct evaluation of one
    // epoch decision); a linear scan beats any map.
    for (const OracleDecision &d : trail_) {
        if (d.key == key)
            return d.desirable;
    }
    bool ans;
    if (targeted_) {
        ans = key == yesKey_ ||
              (yesAllL2Splits_ && !isMergeKey(key) && !isL3Key(key));
    } else {
        const std::size_t index = trail_.size();
        ans = index < script_.size() ? script_[index] != 0 : false;
    }
    trail_.push_back(OracleDecision{key, ans});
    return ans;
}

bool
ClassificationOracle::advance(std::vector<char> &script) const
{
    // Depth-first: flip the deepest "no" to "yes"; everything
    // beyond it defaults to "no" on the next run.
    std::size_t i = trail_.size();
    while (i > 0 && trail_[i - 1].desirable)
        --i;
    if (i == 0)
        return false;
    script.clear();
    script.reserve(i);
    for (std::size_t j = 0; j + 1 < i; ++j)
        script.push_back(trail_[j].desirable ? 1 : 0);
    script.push_back(1);
    return true;
}

OracleLevelSignals::OracleLevelSignals(ClassificationOracle &oracle,
                                       bool is_l3,
                                       const MsatConfig &msat)
    : oracle_(oracle), isL3_(is_l3),
      hot_(msat.high * splitHighFactor + 1.0),
      cold_(msat.low - 1.0), mid_((msat.low + msat.high) / 2.0)
{
}

MergeSignals
OracleLevelSignals::mergeSignals(const std::vector<SliceId> &a,
                                 const std::vector<SliceId> &b) const
{
    const bool yes = oracle_.answer(
        packQuery(isL3_, true, a.front(), a.back(), b.front(),
                  b.back()));
    MergeSignals s;
    if (yes) {
        // Condition (i): one hot group, one cold low-churn group.
        s.utilA = hot_;
        s.utilB = cold_;
    } else {
        s.utilA = mid_;
        s.utilB = mid_;
    }
    s.fillPressureA = 0.0;
    s.fillPressureB = 0.0;
    return s;
}

SplitSignals
OracleLevelSignals::splitSignals(
    const std::vector<SliceId> &first,
    const std::vector<SliceId> &second) const
{
    const bool yes = oracle_.answer(packQuery(
        isL3_, false, first.front(), second.back(), 0, 0));
    SplitSignals s;
    s.utilFirst = yes ? hot_ : mid_;
    s.utilSecond = yes ? hot_ : mid_;
    return s;
}

double
OracleLevelSignals::overlap(const std::vector<SliceId> &,
                            const std::vector<SliceId> &) const
{
    return 0.0;
}

double
OracleLevelSignals::utilization(const std::vector<SliceId> &) const
{
    return mid_;
}

ClassificationMode
classificationModeFromName(const char *name)
{
    if (std::strcmp(name, "auto") == 0)
        return ClassificationMode::Auto;
    if (std::strcmp(name, "full") == 0)
        return ClassificationMode::Full;
    if (std::strcmp(name, "cluster") == 0)
        return ClassificationMode::Cluster;
    throw ConfigError(
        "unknown classification mode (auto, full, cluster)");
}

const char *
classificationModeName(ClassificationMode mode)
{
    switch (mode) {
      case ClassificationMode::Auto: return "auto";
      case ClassificationMode::Full: return "full";
      case ClassificationMode::Cluster: return "cluster";
    }
    return "?";
}

namespace {

MorphConfig
checkerMorphConfig(const ModelCheckConfig &config)
{
    MorphConfig morph;
    morph.msat = config.msat;
    morph.msatL3 = config.msatL3;
    // The decision function is explored directly; the runtime gates
    // (checkPolicy) and effects (faults, QoS) stay out of the loop.
    morph.checkPolicy = CheckPolicy::Off;
    return morph;
}

void
printPartition(std::ostream &os, const Partition &partition)
{
    for (const std::vector<SliceId> &group : partition)
        os << "[" << group.front() << ".." << group.back() << "]";
}

void
printTopology(std::ostream &os, const Topology &topo)
{
    os << "l2=";
    printPartition(os, topo.l2);
    os << " l3=";
    printPartition(os, topo.l3);
    os << " (" << topo.name() << ")";
}

} // namespace

void
printCounterexample(std::ostream &os, const Counterexample &cex)
{
    os << "counterexample: " << cex.violations.size()
       << " invariant violation(s) after " << cex.steps.size()
       << " decision(s) from the all-private state\n";
    for (std::size_t i = 0; i < cex.steps.size(); ++i) {
        const CounterexampleStep &step = cex.steps[i];
        os << "decision #" << i + 1 << " from ";
        printTopology(os, step.from);
        os << "\n";
        if (step.splitsBlocked) {
            os << "  (hysteresis context: phase-3 splits stamped "
                  "out; straddlers split via inclusion forcing)\n";
        }
        for (const OracleDecision &d : step.answers) {
            os << "  classify " << oracleQueryName(d.key) << " -> "
               << (d.desirable ? "desirable" : "undesirable")
               << "\n";
        }
        if (step.proposal.events.empty())
            os << "  (no merge/split events)\n";
        for (const ProposalEvent &ev : step.proposal.events)
            os << "  event " << proposalEventName(ev) << "\n";
        os << "  proposal l2=";
        printPartition(os, step.proposal.l2);
        os << " l3=";
        printPartition(os, step.proposal.l3);
        os << "\n";
    }
    for (const Violation &v : cex.violations) {
        os << "violation [" << invariantKindName(v.kind)
           << "]: " << v.message << "\n";
    }
}

TopologyModelChecker::TopologyModelChecker(
    const ModelCheckConfig &config)
    : config_(config),
      controller_(checkerMorphConfig(config), config.numCores),
      checker_(CheckPolicy::Log),
      // Stamp value 2 against decisionIndex 1 blocks the phase-3
      // split of every multi-slice group for any minEpochs >= 0.
      blockedStamps_(config.numCores, 2)
{
    if (config.numCores < 2 || config.numCores > 32 ||
        (config.numCores & (config.numCores - 1)) != 0) {
        throw ConfigError(
            "model checker requires a power-of-two core count "
            "between 2 and 32");
    }
}

ClassificationMode
TopologyModelChecker::resolvedMode() const
{
    if (config_.classifications != ClassificationMode::Auto)
        return config_.classifications;
    return config_.numCores <= 8 ? ClassificationMode::Full
                                 : ClassificationMode::Cluster;
}

std::uint64_t
TopologyModelChecker::encode(const Partition &l2,
                             const Partition &l3) const
{
    const auto mask = [this](const Partition &partition) {
        std::uint32_t m = 0;
        std::uint32_t covered = 0;
        for (const std::vector<SliceId> &group : partition) {
            const std::uint32_t first = group.front();
            const std::uint32_t last = group.back();
            if (last - first + 1 != group.size() ||
                first < covered) {
                panic("model checker: partition is not a canonical "
                      "contiguous range sequence");
            }
            covered = last + 1;
            m |= 1u << first;
        }
        if (covered != config_.numCores)
            panic("model checker: partition does not cover all "
                  "slices");
        return m;
    };
    return static_cast<std::uint64_t>(mask(l2)) |
           static_cast<std::uint64_t>(mask(l3)) << 32;
}

Topology
TopologyModelChecker::decode(std::uint64_t key) const
{
    const auto unpack = [this](std::uint32_t m) {
        Partition partition;
        for (std::uint32_t s = 0; s < config_.numCores; ++s) {
            if (m & (1u << s))
                partition.emplace_back();
            partition.back().push_back(static_cast<SliceId>(s));
        }
        return partition;
    };
    Topology topo;
    topo.numCores = config_.numCores;
    topo.l2 = unpack(static_cast<std::uint32_t>(key));
    topo.l3 = unpack(static_cast<std::uint32_t>(key >> 32));
    return topo;
}

TransitionProposal
TopologyModelChecker::propose(const Topology &from,
                              ClassificationOracle &oracle,
                              bool splits_blocked) const
{
    const OracleLevelSignals l2_signals(oracle, false, config_.msat);
    const OracleLevelSignals l3_signals(oracle, true, config_.msatL3);
    DecisionInputs in;
    in.l2 = &l2_signals;
    in.l3 = &l3_signals;
    in.msatL2 = config_.msat;
    in.msatL3 = config_.msatL3;
    // Free context: hysteresis stamps disabled — every split the
    // engine could take at any stamp distance is evaluated, the
    // superset. Blocked context: every multi-slice L2 group is
    // inside its hysteresis window, which routes straddler splits
    // through the forced inclusion path of the L3 split phase.
    in.decisionIndex = 1;
    in.l2MergeStamps = splits_blocked ? &blockedStamps_ : nullptr;
    in.l3MergeStamps = nullptr;
    in.sharedAddressSpace = false;
    in.faults = nullptr;
    in.provenance = false;
    in.classifyOutcomes = false;
    in.ruleBug = config_.ruleBug;
    return controller_.proposeTransition(from, in);
}

std::vector<Violation>
TopologyModelChecker::verify(const TransitionProposal &p) const
{
    Topology topo;
    topo.numCores = config_.numCores;
    topo.l2 = p.l2;
    topo.l3 = p.l3;
    // The default shape mode: contiguous aligned-pow2 groups at
    // both levels plus L2-within-L3 inclusiveness and exact slice
    // coverage (PartitionValidity — the static face of line
    // conservation: a proposal that covers every slice exactly once
    // gives the reconfiguration engine no way to duplicate lines).
    return checker_.checkTopology(topo, ShapeRule::AlignedPow2);
}

std::vector<Violation>
TopologyModelChecker::lineCheck(const Topology &from,
                                const Topology &to)
{
    ++stats_.lineChecksRun;
    Hierarchy hierarchy(
        HierarchyParams::defaultParams(config_.numCores));
    hierarchy.reconfigure(from);
    // Warm every core with a deterministic footprint so slices hold
    // lines the reconfiguration must conserve.
    Cycle now = 0;
    for (std::uint32_t c = 0; c < config_.numCores; ++c) {
        for (std::uint32_t i = 0; i < 192; ++i) {
            MemAccess access;
            access.core = static_cast<CoreId>(c);
            access.addr = (static_cast<Addr>(c) << 22) +
                          static_cast<Addr>(i) * 64;
            access.type = i % 4 == 0 ? AccessType::Write
                                     : AccessType::Read;
            now += hierarchy.access(access, now).latency;
        }
    }
    const auto before = InvariantChecker::snapshot(hierarchy);
    hierarchy.reconfigure(to);
    std::vector<Violation> violations =
        checker_.checkConservation(hierarchy, before);
    const auto occupancy = checker_.checkOccupancy(hierarchy);
    violations.insert(violations.end(), occupancy.begin(),
                      occupancy.end());
    return violations;
}

void
TopologyModelChecker::buildCounterexample(
    std::uint64_t from_key, const std::vector<char> &script,
    bool splits_blocked, std::vector<Violation> violations)
{
    // Reconstruct the BFS spanning path to the failing state, then
    // replay each hop's decision script to recover its answers and
    // events.
    struct Hop
    {
        std::uint64_t key;
        std::vector<char> script;
        bool blocked;
    };
    std::vector<Hop> hops;
    hops.push_back(Hop{from_key, script, splits_blocked});
    std::uint64_t key = from_key;
    while (true) {
        const StateRec &rec = states_.at(key);
        if (rec.parent == key)
            break;
        hops.push_back(
            Hop{rec.parent, rec.script, rec.splitsBlocked});
        key = rec.parent;
    }
    std::reverse(hops.begin(), hops.end());

    Counterexample cex;
    for (const Hop &hop : hops) {
        CounterexampleStep step;
        step.from = decode(hop.key);
        step.splitsBlocked = hop.blocked;
        ClassificationOracle oracle;
        oracle.beginRun(hop.script);
        step.proposal = propose(step.from, oracle, hop.blocked);
        step.answers = oracle.trail();
        cex.steps.push_back(std::move(step));
    }
    cex.violations = std::move(violations);
    counterexample_ = std::move(cex);
}

bool
TopologyModelChecker::processRun(std::uint64_t key,
                                 std::uint64_t depth,
                                 const Topology &from,
                                 const ClassificationOracle &oracle,
                                 const TransitionProposal &proposal,
                                 bool splits_blocked)
{
    ++stats_.transitions;

    const auto full_script = [&oracle]() {
        std::vector<char> full;
        full.reserve(oracle.trail().size());
        for (const OracleDecision &d : oracle.trail())
            full.push_back(d.desirable ? 1 : 0);
        return full;
    };

    std::vector<Violation> violations = verify(proposal);
    if (!violations.empty()) {
        buildCounterexample(key, full_script(), splits_blocked,
                            std::move(violations));
        return false;
    }

    const std::uint64_t succ = encode(proposal.l2, proposal.l3);
    if (states_.find(succ) == states_.end()) {
        // New-state edges form the BFS spanning tree; they double
        // as the concrete line-conservation samples.
        if (stats_.lineChecksRun < config_.lineChecks) {
            Topology to;
            to.numCores = config_.numCores;
            to.l2 = proposal.l2;
            to.l3 = proposal.l3;
            std::vector<Violation> line_violations =
                lineCheck(from, to);
            if (!line_violations.empty()) {
                buildCounterexample(key, full_script(),
                                    splits_blocked,
                                    std::move(line_violations));
                return false;
            }
        }

        states_.emplace(succ, StateRec{key, full_script(), depth + 1,
                                       splits_blocked});
        queue_.push_back(succ);
        ++stats_.states;
        stats_.maxDepth = std::max(stats_.maxDepth, depth + 1);
        if (config_.maxStates != 0 &&
            stats_.states >= config_.maxStates) {
            stats_.truncated = true;
        }
    }
    return true;
}

bool
TopologyModelChecker::expandFull(std::uint64_t key,
                                 std::uint64_t depth,
                                 const Topology &from,
                                 bool splits_blocked)
{
    std::vector<char> script;
    ClassificationOracle oracle;
    while (true) {
        oracle.beginRun(script);
        const TransitionProposal proposal =
            propose(from, oracle, splits_blocked);
        if (!processRun(key, depth, from, oracle, proposal,
                        splits_blocked)) {
            return false;
        }
        if (stats_.truncated || !oracle.advance(script))
            return true;
    }
}

bool
TopologyModelChecker::expandCluster(std::uint64_t key,
                                    std::uint64_t depth,
                                    const Topology &from,
                                    bool splits_blocked)
{
    // One decision per primary event: answer exactly one query
    // "desirable" (plus, in the blocked context, the straddler
    // companions an L3-split primary forces). Primaries are
    // discovered from the runs themselves, to a fixpoint: the
    // identity run surfaces every query askable under all-"no"
    // answers, and each yes-run may surface follow-ups. In the
    // blocked context only L3-split primaries add coverage — merge
    // behaviour is stamp-independent and phase-3 splits are exactly
    // what the context suppresses.
    std::vector<std::uint32_t> primaries;
    const auto note = [&](const ClassificationOracle &oracle) {
        for (const OracleDecision &d : oracle.trail()) {
            if (splits_blocked &&
                !(isL3Key(d.key) && !isMergeKey(d.key))) {
                continue;
            }
            if (std::find(primaries.begin(), primaries.end(),
                          d.key) == primaries.end()) {
                primaries.push_back(d.key);
            }
        }
    };

    ClassificationOracle oracle;
    oracle.beginTargetedRun(ClassificationOracle::kNoQuery,
                            splits_blocked);
    TransitionProposal proposal = propose(from, oracle,
                                          splits_blocked);
    if (!processRun(key, depth, from, oracle, proposal,
                    splits_blocked)) {
        return false;
    }
    note(oracle);

    for (std::size_t i = 0;
         i < primaries.size() && !stats_.truncated; ++i) {
        oracle.beginTargetedRun(primaries[i], splits_blocked);
        proposal = propose(from, oracle, splits_blocked);
        if (!processRun(key, depth, from, oracle, proposal,
                        splits_blocked)) {
            return false;
        }
        note(oracle);
    }
    return true;
}

bool
TopologyModelChecker::run()
{
    const Topology start =
        Topology::allPrivateTopology(config_.numCores);
    const std::uint64_t start_key = encode(start.l2, start.l3);
    states_.emplace(start_key, StateRec{start_key, {}, 0, false});
    queue_.clear();
    queue_.push_back(start_key);
    stats_.states = 1;

    const ClassificationMode mode = resolvedMode();
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const std::uint64_t key = queue_[head];
        const std::uint64_t depth = states_.at(key).depth;
        const Topology from = decode(key);

        // Both hysteresis contexts: free first (phase-3 splits and
        // all merges), then blocked (forced straddler splits).
        for (const bool blocked : {false, true}) {
            const bool ok =
                mode == ClassificationMode::Full
                    ? expandFull(key, depth, from, blocked)
                    : expandCluster(key, depth, from, blocked);
            if (!ok)
                return false;
            if (stats_.truncated)
                break;
        }
        ++stats_.statesExpanded;
        if (stats_.truncated)
            break;
    }
    return true;
}

std::string
TopologyModelChecker::summary() const
{
    std::ostringstream os;
    os << "model check: cores=" << config_.numCores
       << " mode=" << classificationModeName(resolvedMode())
       << " states=" << stats_.states
       << " expanded=" << stats_.statesExpanded
       << " transitions=" << stats_.transitions
       << " maxDepth=" << stats_.maxDepth
       << " lineChecks=" << stats_.lineChecksRun;
    if (config_.ruleBug != RuleBug::None)
        os << " ruleBug=" << ruleBugName(config_.ruleBug);
    if (stats_.truncated)
        os << " (truncated by --max-states)";
    return os.str();
}

} // namespace morphcache
