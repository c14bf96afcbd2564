#include "morph/controller.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "stats/profiler.hh"
#include "stats/registry.hh"
#include "stats/report.hh"
#include "stats/tracing.hh"

namespace morphcache {

namespace {

/**
 * Sharing-overlap threshold for condition (ii). The overlap
 * statistic is the *lift over chance* of the common ACFV 1s (see
 * CacheLevelModel::overlap); unrelated footprints read near zero,
 * address-space sharing reads 0.15-0.4 depending on per-epoch
 * coverage of the shared region.
 */
constexpr double sharingOverlapThreshold = 0.12;

/**
 * Condition-(i) churn guard: the under-utilized merge partner must
 * have filled less than this multiple of its capacity during the
 * epoch, or its "spare" space is a stream conveyor rather than
 * usable capacity. Uses the per-slice miss registers the Section
 * 5.3 QoS hardware already provides.
 */
constexpr double coldChurnLimit = 6.0;

/**
 * Hysteresis: a group formed by a merge may only be split again
 * after this many epoch decisions. Damps merge/split oscillation
 * when a footprint sits near a threshold.
 */
constexpr std::uint64_t minEpochsBeforeSplit = 2;

} // namespace

MorphController::MorphController(const MorphConfig &config,
                                 std::uint32_t num_cores)
    : config_(config), numCores_(num_cores), msatNow_(config.msat),
      msatL3Now_(config.msatL3),
      l2MergeStamp_(num_cores, 0), l3MergeStamp_(num_cores, 0),
      lastMissSnapshot_(num_cores, 0), prevEpochMisses_(num_cores, 0),
      checker_(config.checkPolicy)
{
    if (num_cores < 2)
        throw ConfigError("MorphController requires >= 2 cores");
    if (!(config.msat.high > config.msat.low))
        throw ConfigError("MSAT high bound must exceed the low bound");
    if (config.faults.enabled())
        ownedFaults_ = std::make_unique<FaultInjector>(config.faults);
}

FaultInjector *
MorphController::faultInjector() const
{
    return attachedFaults_ ? attachedFaults_ : ownedFaults_.get();
}

void
MorphController::attachFaultInjector(FaultInjector *injector)
{
    attachedFaults_ = injector;
}

MergeEval
MorphController::evaluateMerge(const DecisionInputs &in,
                               const LevelSignals &level,
                               const MsatConfig &msat,
                               const std::vector<SliceId> &a,
                               const std::vector<SliceId> &b) const
{
    MergeEval eval;
    const MergeSignals sig = level.mergeSignals(a, b);
    eval.utilA = sig.utilA;
    eval.utilB = sig.utilB;
    const double h = msat.high;
    const double l = msat.low;

    // Condition (i): capacity sharing — one hot, one cold. The
    // cold side must also be low-churn: a slice full of streaming
    // fills reads a tiny *reused* footprint but offers no usable
    // spare capacity (its fills would evict whatever the hot
    // partner spills into it).
    if ((eval.utilA > h && eval.utilB < l &&
         sig.fillPressureB < coldChurnLimit) ||
        (eval.utilB > h && eval.utilA < l &&
         sig.fillPressureA < coldChurnLimit)) {
        eval.desirable = true;
        eval.condition = 1;
    }

    // Condition (ii): data sharing — one address space, both
    // groups actively used, significant footprint overlap. The
    // paper states this for two *highly* utilized slices; the
    // replication/transfer savings it reasons from exist at any
    // non-trivial utilization, and at this model's estimator scale
    // an above-high gate would disable the sharing path entirely
    // (DESIGN.md deviation 4), so the gate here is above-low.
    if (!eval.desirable && in.sharedAddressSpace &&
        eval.utilA > l && eval.utilB > l) {
        eval.overlap = level.overlap(a, b);
        if (eval.overlap >= sharingOverlapThreshold) {
            eval.desirable = true;
            eval.condition = 2;
        }
    }

    // Injected MSAT corruption: the latched classification inverts.
    if (in.faults && in.faults->corruptClassification()) {
        eval.desirable = !eval.desirable;
        eval.condition = eval.desirable ? 3 : 0;
    }
    return eval;
}

SplitEval
MorphController::evaluateSplit(const DecisionInputs &in,
                               const LevelSignals &level,
                               const MsatConfig &msat,
                               const std::vector<SliceId> &group) const
{
    SplitEval eval;
    if (group.size() < 2)
        return eval;
    std::vector<SliceId> first, second;
    splitGroup(group, first, second);
    const SplitSignals sig = level.splitSignals(first, second);
    eval.utilFirst = sig.utilFirst;
    eval.utilSecond = sig.utilSecond;
    // Both halves hot: the merge no longer buys capacity sharing;
    // it only costs merged-access latency and interference — unless
    // the halves genuinely share data (Section 2.3 / Figure 6).
    const double split_bar = msat.high * splitHighFactor;
    if (eval.utilFirst > split_bar && eval.utilSecond > split_bar) {
        eval.desirable = true;
        if (in.sharedAddressSpace) {
            eval.overlap = level.overlap(first, second);
            if (eval.overlap >= sharingOverlapThreshold)
                eval.desirable = false;
        }
    }

    if (in.faults && in.faults->corruptClassification()) {
        eval.desirable = !eval.desirable;
        eval.faultInverted = true;
    }
    return eval;
}

void
MorphController::countMergeCondition(const MergeEval &eval)
{
    if (eval.condition == 1)
        ++stats_.mergesCondI;
    else if (eval.condition == 2)
        ++stats_.mergesCondII;
}

namespace {

const char *
mergeConditionName(int condition)
{
    switch (condition) {
      case 1: return "capacity";
      case 2: return "sharing";
      case 3: return "fault";
      default: return "none";
    }
}

} // namespace

void
MorphController::traceMerge(const char *level,
                            const ProposalEvent &event,
                            const MsatConfig &msat)
{
    if (!tracer_ || !tracer_->enabled())
        return;
    TraceEvent ev("merge");
    ev.str("level", level)
        .str("cond", mergeConditionName(event.merge.condition))
        .u64("aFirst", event.aFirst)
        .u64("aLast", event.aLast)
        .u64("bFirst", event.bFirst)
        .u64("bLast", event.bLast)
        .f64("utilA", event.merge.utilA)
        .f64("utilB", event.merge.utilB)
        .f64("overlap", event.merge.overlap)
        .f64("msatHigh", msat.high)
        .f64("msatLow", msat.low);
    tracer_->emit(ev);
}

void
MorphController::traceForcedMerge(const ProposalEvent &event)
{
    if (!tracer_ || !tracer_->enabled())
        return;
    TraceEvent ev("merge");
    ev.str("level", "l3")
        .str("cond", "forced")
        .u64("aFirst", event.aFirst)
        .u64("aLast", event.aLast)
        .u64("bFirst", event.bFirst)
        .u64("bLast", event.bLast)
        .f64("utilA", event.merge.utilA)
        .f64("utilB", event.merge.utilB)
        .f64("msatHigh", msatL3Now_.high)
        .f64("msatLow", msatL3Now_.low);
    tracer_->emit(ev);
}

void
MorphController::traceSplit(const char *level,
                            const ProposalEvent &event,
                            const MsatConfig &msat, bool forced)
{
    if (!tracer_ || !tracer_->enabled())
        return;
    TraceEvent ev("split");
    ev.str("level", level)
        .str("cond", forced ? "forced"
                     : event.split.faultInverted ? "fault"
                                                 : "interference")
        .u64("first", event.aFirst)
        .u64("last", event.aLast)
        .f64("utilFirst", event.split.utilFirst)
        .f64("utilSecond", event.split.utilSecond)
        .f64("overlap", event.split.overlap)
        .f64("splitBar", msat.high * splitHighFactor);
    tracer_->emit(ev);
}

void
MorphController::traceClassification(const char *level,
                                     const CacheLevelModel &model,
                                     const Partition &partition,
                                     const MsatConfig &msat)
{
    if (!tracer_ || !tracer_->enabled())
        return;
    for (const std::vector<SliceId> &group : partition) {
        const double util = model.acfvs().utilization(group);
        TraceEvent ev("classify");
        ev.str("level", level)
            .u64("first", group.front())
            .u64("last", group.back())
            .f64("util", util)
            .f64("msatHigh", msat.high)
            .f64("msatLow", msat.low)
            .str("class", util > msat.high  ? "high"
                          : util < msat.low ? "under"
                                            : "mid");
        tracer_->emit(ev);
    }
}

bool
MorphController::mergeAllowed(const std::vector<SliceId> &a,
                              const std::vector<SliceId> &b,
                              RuleBug bug) const
{
    if (config_.allowNonNeighborGroups)
        return true;
    // Neighbors only: the ranges must be contiguous back-to-back.
    const SliceId a_hi = a.back();
    const SliceId b_lo = b.front();
    if (a_hi + 1 != b_lo)
        return false;
    if (config_.allowArbitraryGroupSizes)
        return true;
    // Planted model-checker bug: accept any contiguous pair, even
    // when the result is not an aligned power of two.
    if (bug == RuleBug::IgnoreAlignment)
        return true;
    // Default mode: merged group must be an aligned power of two
    // (private/dual/quad/oct/all-shared, Section 2).
    const auto combined =
        static_cast<std::uint32_t>(a.size() + b.size());
    if (!isPowerOf2(combined))
        return false;
    return a.front() % combined == 0;
}

void
MorphController::splitGroup(const std::vector<SliceId> &group,
                            std::vector<SliceId> &first,
                            std::vector<SliceId> &second)
{
    const std::size_t half = group.size() / 2;
    first.assign(group.begin(), group.begin() + half);
    second.assign(group.begin() + half, group.end());
}

bool
MorphController::outcomeAsymmetric(const TransitionProposal &p) const
{
    Topology topo;
    topo.numCores = numCores_;
    topo.l2 = p.l2;
    topo.l3 = p.l3;
    return !topo.isSymmetric();
}

namespace {

/** Merge partition groups i and j (j > i) in place. */
void
mergeInto(Partition &partition, std::vector<char> &merged_now,
          std::size_t i, std::size_t j)
{
    auto &dst = partition[i];
    auto &src = partition[j];
    dst.insert(dst.end(), src.begin(), src.end());
    std::sort(dst.begin(), dst.end());
    partition.erase(partition.begin() +
                    static_cast<std::ptrdiff_t>(j));
    merged_now[i] = 1;
    merged_now.erase(merged_now.begin() +
                     static_cast<std::ptrdiff_t>(j));
}

/** Index of the partition group containing a slice. */
std::size_t
groupIndexOf(const Partition &partition, SliceId slice)
{
    for (std::size_t g = 0; g < partition.size(); ++g) {
        for (SliceId member : partition[g]) {
            if (member == slice)
                return g;
        }
    }
    panic("slice %u not found in partition", slice);
}

} // namespace

void
MorphController::doL3Merges(const DecisionInputs &in,
                            TransitionProposal &p) const
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i + 1 < p.l3.size() && !changed;
             ++i) {
            const std::size_t j_end = config_.allowNonNeighborGroups
                                          ? p.l3.size()
                                          : i + 2;
            for (std::size_t j = i + 1; j < j_end; ++j) {
                if (!mergeAllowed(p.l3[i], p.l3[j], in.ruleBug))
                    continue;
                const MergeEval eval = evaluateMerge(
                    in, *in.l3, in.msatL3, p.l3[i], p.l3[j]);
                if (!eval.desirable)
                    continue;
                ProposalEvent ev;
                ev.kind = ProposalEvent::Kind::L3Merge;
                ev.aFirst = p.l3[i].front();
                ev.aLast = p.l3[i].back();
                ev.bFirst = p.l3[j].front();
                ev.bLast = p.l3[j].back();
                ev.merge = eval;
                mergeInto(p.l3, p.l3MergedNow, i, j);
                ++p.merges;
                ev.asymmetric =
                    in.classifyOutcomes && outcomeAsymmetric(p);
                p.events.push_back(ev);
                changed = true;
                break;
            }
        }
    }
}

void
MorphController::doL2Merges(const DecisionInputs &in,
                            TransitionProposal &p) const
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i + 1 < p.l2.size() && !changed;
             ++i) {
            const std::size_t j_end = config_.allowNonNeighborGroups
                                          ? p.l2.size()
                                          : i + 2;
            for (std::size_t j = i + 1; j < j_end; ++j) {
                if (!mergeAllowed(p.l2[i], p.l2[j], in.ruleBug))
                    continue;
                const MergeEval eval = evaluateMerge(
                    in, *in.l2, in.msatL2, p.l2[i], p.l2[j]);
                if (!eval.desirable)
                    continue;

                // Inclusion (Section 2.2): the merged L2 group must
                // be backed by a single L3 group; merge the covering
                // L3 groups when they are distinct (always safe) and
                // structurally mergeable.
                const std::size_t g3a =
                    groupIndexOf(p.l3, p.l2[i].front());
                const std::size_t g3b =
                    groupIndexOf(p.l3, p.l2[j].front());
                if (g3a != g3b &&
                    in.ruleBug != RuleBug::SkipForcedL3Merge) {
                    const std::size_t lo = std::min(g3a, g3b);
                    const std::size_t hi = std::max(g3a, g3b);
                    if (!mergeAllowed(p.l3[lo], p.l3[hi], in.ruleBug))
                        continue;
                    // Non-neighbor mode aside, covering groups are
                    // adjacent whenever the L2 groups are.
                    if (!config_.allowNonNeighborGroups &&
                        hi != lo + 1) {
                        continue;
                    }
                    // Structural merge for inclusion, not ACF-driven.
                    ProposalEvent forced;
                    forced.kind = ProposalEvent::Kind::ForcedL3Merge;
                    forced.aFirst = p.l3[lo].front();
                    forced.aLast = p.l3[lo].back();
                    forced.bFirst = p.l3[hi].front();
                    forced.bLast = p.l3[hi].back();
                    if (in.provenance) {
                        forced.merge.utilA =
                            in.l3->utilization(p.l3[lo]);
                        forced.merge.utilB =
                            in.l3->utilization(p.l3[hi]);
                    }
                    mergeInto(p.l3, p.l3MergedNow, lo, hi);
                    ++p.merges;
                    forced.asymmetric =
                        in.classifyOutcomes && outcomeAsymmetric(p);
                    p.events.push_back(forced);
                }

                ProposalEvent ev;
                ev.kind = ProposalEvent::Kind::L2Merge;
                ev.aFirst = p.l2[i].front();
                ev.aLast = p.l2[i].back();
                ev.bFirst = p.l2[j].front();
                ev.bLast = p.l2[j].back();
                ev.merge = eval;
                mergeInto(p.l2, p.l2MergedNow, i, j);
                ++p.merges;
                ev.asymmetric =
                    in.classifyOutcomes && outcomeAsymmetric(p);
                p.events.push_back(ev);
                changed = true;
                break;
            }
        }
    }
}

void
MorphController::doL2Splits(const DecisionInputs &in,
                            TransitionProposal &p) const
{
    for (std::size_t g = 0; g < p.l2.size(); ++g) {
        if (p.l2MergedNow[g])
            continue; // merge-aggressive exclusion
        // Hysteresis: leave freshly merged groups alone.
        if (in.l2MergeStamps) {
            const std::uint64_t l2_stamp =
                (*in.l2MergeStamps)[p.l2[g].front()];
            if (p.l2[g].size() > 1 && l2_stamp != 0 &&
                in.decisionIndex <
                    l2_stamp + minEpochsBeforeSplit) {
                continue;
            }
        }
        const SplitEval eval =
            evaluateSplit(in, *in.l2, in.msatL2, p.l2[g]);
        if (!eval.desirable)
            continue;
        ProposalEvent ev;
        ev.kind = ProposalEvent::Kind::L2Split;
        ev.aFirst = p.l2[g].front();
        ev.aLast = p.l2[g].back();
        ev.split = eval;
        std::vector<SliceId> first, second;
        splitGroup(p.l2[g], first, second);
        p.l2[g] = std::move(first);
        p.l2.insert(p.l2.begin() + static_cast<std::ptrdiff_t>(g) +
                        1,
                    std::move(second));
        p.l2MergedNow.insert(p.l2MergedNow.begin() +
                                 static_cast<std::ptrdiff_t>(g) + 1,
                             0);
        ++p.splits;
        ev.asymmetric = in.classifyOutcomes && outcomeAsymmetric(p);
        p.events.push_back(ev);
        ++g; // skip the freshly created second half
    }
}

void
MorphController::doL3Splits(const DecisionInputs &in,
                            TransitionProposal &p) const
{
    for (std::size_t g = 0; g < p.l3.size(); ++g) {
        if (p.l3MergedNow[g])
            continue;
        if (in.l3MergeStamps) {
            const std::uint64_t l3_stamp =
                (*in.l3MergeStamps)[p.l3[g].front()];
            if (p.l3[g].size() > 1 && l3_stamp != 0 &&
                in.decisionIndex <
                    l3_stamp + minEpochsBeforeSplit) {
                continue;
            }
        }
        const SplitEval eval =
            evaluateSplit(in, *in.l3, in.msatL3, p.l3[g]);
        if (!eval.desirable)
            continue;

        std::vector<SliceId> first, second;
        splitGroup(p.l3[g], first, second);

        // Inclusion (Section 2.3): every L2 group under this L3
        // group must fit within one half; straddling groups must
        // themselves be splittable, else the L3 split is dropped.
        auto in_half = [](const std::vector<SliceId> &group,
                          const std::vector<SliceId> &half) {
            for (SliceId member : group) {
                if (std::find(half.begin(), half.end(), member) ==
                    half.end()) {
                    return false;
                }
            }
            return true;
        };

        Partition new_l2 = p.l2;
        std::vector<char> new_l2_merged = p.l2MergedNow;
        std::uint64_t extra_splits = 0;
        // Straddling L2 splits applied for inclusion, recorded as
        // events only after the whole proposal proves feasible.
        std::vector<ProposalEvent> forced_l2;
        bool feasible = true;
        // Planted model-checker bug: split the L3 group without
        // splitting the L2 groups that straddle its halves.
        const bool skip_forced =
            in.ruleBug == RuleBug::SkipForcedL2Split;
        for (std::size_t k = 0;
             k < new_l2.size() && feasible && !skip_forced; ++k) {
            const auto &group = new_l2[k];
            // Only groups under this L3 group matter.
            if (std::find(p.l3[g].begin(), p.l3[g].end(),
                          group.front()) == p.l3[g].end()) {
                continue;
            }
            if (in_half(group, first) || in_half(group, second))
                continue;
            if (new_l2_merged[k]) {
                feasible = false;
                break;
            }
            const SplitEval l2_eval =
                evaluateSplit(in, *in.l2, in.msatL2, group);
            if (!l2_eval.desirable) {
                feasible = false;
                break;
            }
            ProposalEvent fev;
            fev.kind = ProposalEvent::Kind::ForcedL2Split;
            fev.aFirst = group.front();
            fev.aLast = group.back();
            fev.split = l2_eval;
            forced_l2.push_back(fev);
            std::vector<SliceId> l2_first, l2_second;
            splitGroup(group, l2_first, l2_second);
            if (!(in_half(l2_first, first) &&
                  in_half(l2_second, second))) {
                feasible = false;
                break;
            }
            new_l2[k] = std::move(l2_first);
            new_l2.insert(new_l2.begin() +
                              static_cast<std::ptrdiff_t>(k) + 1,
                          std::move(l2_second));
            new_l2_merged.insert(new_l2_merged.begin() +
                                     static_cast<std::ptrdiff_t>(k) +
                                     1,
                                 0);
            ++extra_splits;
            ++k;
        }
        if (!feasible)
            continue;

        ProposalEvent ev;
        ev.kind = ProposalEvent::Kind::L3Split;
        ev.aFirst = p.l3[g].front();
        ev.aLast = p.l3[g].back();
        ev.split = eval;

        p.l2 = std::move(new_l2);
        p.l2MergedNow = std::move(new_l2_merged);
        p.l3[g] = std::move(first);
        p.l3.insert(p.l3.begin() + static_cast<std::ptrdiff_t>(g) +
                        1,
                    std::move(second));
        p.l3MergedNow.insert(p.l3MergedNow.begin() +
                                 static_cast<std::ptrdiff_t>(g) + 1,
                             0);
        p.splits += 1 + extra_splits;
        const bool asym =
            in.classifyOutcomes && outcomeAsymmetric(p);
        ev.asymmetric = asym;
        p.events.push_back(ev);
        for (ProposalEvent &fev : forced_l2) {
            fev.asymmetric = asym;
            p.events.push_back(fev);
        }
        ++g;
    }
}

void
MorphController::throttleMsat(const Hierarchy &hierarchy)
{
    // MSAT adjustment per throttle step, the per-core miss increase
    // tolerated before throttling up, and the L2 throttle clamps.
    constexpr double qosStep = 0.05;
    constexpr double qosMissTolerance = 0.05;
    constexpr double msatHighMax = 0.95;
    constexpr double msatHighMin = 0.40;
    constexpr double msatLowMax = 0.45;
    constexpr double msatLowMin = 0.05;

    std::vector<std::uint64_t> epoch_misses(numCores_, 0);
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        const std::uint64_t cumulative =
            hierarchy.coreStats(static_cast<CoreId>(c)).misses();
        epoch_misses[c] = cumulative - lastMissSnapshot_[c];
        lastMissSnapshot_[c] = cumulative;
    }

    if (havePrevEpoch_ && mergedLastEpoch_) {
        // A merge happened last boundary: did it hurt anyone?
        bool worse = false;
        for (std::uint32_t c = 0; c < numCores_; ++c) {
            const double before =
                static_cast<double>(prevEpochMisses_[c]);
            const double after =
                static_cast<double>(epoch_misses[c]);
            if (after > before * (1.0 + qosMissTolerance) + 16.0) {
                worse = true;
                break;
            }
        }
        const double step = worse ? qosStep : -qosStep;
        // Throttle up (worse): drift toward a private
        // configuration; throttle down: merge more aggressively.
        msatNow_.high = std::clamp(msatNow_.high + step, msatHighMin,
                                   msatHighMax);
        msatNow_.low = std::clamp(msatNow_.low - step, msatLowMin,
                                  msatLowMax);
        msatL3Now_.high = std::clamp(msatL3Now_.high + step,
                                     0.15, msatHighMax);
        msatL3Now_.low = std::clamp(msatL3Now_.low - step, 0.03,
                                    msatLowMax);
        if (msatNow_.low > msatNow_.high - 0.05)
            msatNow_.low = msatNow_.high - 0.05;
        if (msatL3Now_.low > msatL3Now_.high - 0.05)
            msatL3Now_.low = msatL3Now_.high - 0.05;
    }

    prevEpochMisses_ = std::move(epoch_misses);
    havePrevEpoch_ = true;
}

ShapeRule
MorphController::shapeRule() const
{
    if (config_.allowNonNeighborGroups)
        return ShapeRule::Any;
    if (config_.allowArbitraryGroupSizes)
        return ShapeRule::Contiguous;
    return ShapeRule::AlignedPow2;
}

bool
MorphController::checkDecision(const Partition &l2,
                               const Partition &l3,
                               const char *phase)
{
    if (!checker_.enabled())
        return false;
    Topology topo;
    topo.numCores = numCores_;
    topo.l2 = l2;
    topo.l3 = l3;
    return checker_.report(phase,
                           checker_.checkTopology(topo, shapeRule()));
}

void
MorphController::handleViolation(Hierarchy &hierarchy,
                                 bool dropped_proposal)
{
    ++robust_.violationEpochs;
    switch (checker_.policy()) {
      case CheckPolicy::Recover:
        enterQuarantine(hierarchy);
        break;
      case CheckPolicy::Log:
        if (dropped_proposal)
            ++robust_.droppedTopologies;
        break;
      default:
        // Off never detects; Abort already panicked in report().
        break;
    }
}

void
MorphController::enterQuarantine(Hierarchy &hierarchy)
{
    ++robust_.quarantines;
    quarantineLeft_ = std::max<std::uint32_t>(
        1, config_.quarantineCleanEpochs);
    if (tracer_ && tracer_->enabled()) {
        TraceEvent ev("quarantine");
        ev.u64("holdEpochs", quarantineLeft_)
            .u64("violations", checker_.stats().violations);
        tracer_->emit(ev);
    }
    const Topology safe = Topology::allPrivateTopology(numCores_);
    if (!(hierarchy.topology() == safe))
        hierarchy.reconfigure(safe);
    // Adaptation memory is discarded wholesale: stale merge stamps
    // and a corrupted QoS history would otherwise steer the first
    // decisions after the quarantine lifts.
    std::fill(l2MergeStamp_.begin(), l2MergeStamp_.end(), 0);
    std::fill(l3MergeStamp_.begin(), l3MergeStamp_.end(), 0);
    mergedLastEpoch_ = false;
    havePrevEpoch_ = false;
    msatNow_ = config_.msat;
    msatL3Now_ = config_.msatL3;
}

void
MorphController::quarantineEpoch(Hierarchy &hierarchy)
{
    ++robust_.quarantineEpochs;
    // The quarantine topology is static; an epoch only counts as
    // clean when the quarantined hierarchy itself verifies. Footprint
    // noise (e.g. injected ACFV flips) does not restart the hold —
    // only structural damage does.
    bool clean = true;
    if (checker_.enabled()) {
        auto violations =
            checker_.checkTopology(hierarchy.topology(), shapeRule());
        const auto occupancy = checker_.checkOccupancy(hierarchy);
        violations.insert(violations.end(), occupancy.begin(),
                          occupancy.end());
        clean = !checker_.report("quarantine epoch", violations);
    }
    if (clean) {
        if (--quarantineLeft_ == 0) {
            ++robust_.recoveries;
            if (tracer_ && tracer_->enabled()) {
                TraceEvent ev("recovery");
                ev.u64("quarantineEpochs",
                       robust_.quarantineEpochs)
                    .u64("recoveries", robust_.recoveries);
                tracer_->emit(ev);
            }
        }
    } else {
        ++robust_.violationEpochs;
        quarantineLeft_ = std::max<std::uint32_t>(
            1, config_.quarantineCleanEpochs);
    }
    // Keep the QoS miss snapshot current so the first post-quarantine
    // epoch does not see a multi-epoch miss delta.
    for (std::uint32_t c = 0; c < numCores_; ++c) {
        lastMissSnapshot_[c] =
            hierarchy.coreStats(static_cast<CoreId>(c)).misses();
    }
    hierarchy.resetFootprints();
}

TransitionProposal
MorphController::proposeTransition(const Topology &current,
                                   const DecisionInputs &in) const
{
    TransitionProposal p;
    p.l2 = current.l2;
    p.l3 = current.l3;
    p.l2MergedNow.assign(p.l2.size(), 0);
    p.l3MergedNow.assign(p.l3.size(), 0);

    const auto gate = [&](const char *phase) {
        if (in.phaseCheck && in.phaseCheck(p.l2, p.l3, phase)) {
            p.abandonedPhase = phase;
            return true;
        }
        return false;
    };

    if (config_.conflict == ConflictPolicy::MergeAggressive) {
        doL3Merges(in, p);
        if (gate("L3 merge phase"))
            return p;
        doL2Merges(in, p);
        if (gate("L2 merge phase"))
            return p;
        doL2Splits(in, p);
        if (gate("L2 split phase"))
            return p;
        doL3Splits(in, p);
        gate("L3 split phase");
        return p;
    }
    doL2Splits(in, p);
    if (gate("L2 split phase"))
        return p;
    doL3Splits(in, p);
    if (gate("L3 split phase"))
        return p;
    doL3Merges(in, p);
    if (gate("L3 merge phase"))
        return p;
    doL2Merges(in, p);
    gate("L2 merge phase");
    return p;
}

void
MorphController::replayProposal(const TransitionProposal &p)
{
    for (const ProposalEvent &ev : p.events) {
        switch (ev.kind) {
          case ProposalEvent::Kind::L3Merge:
            ++stats_.merges;
            countMergeCondition(ev.merge);
            traceMerge("l3", ev, msatL3Now_);
            break;
          case ProposalEvent::Kind::L2Merge:
            ++stats_.merges;
            countMergeCondition(ev.merge);
            traceMerge("l2", ev, msatNow_);
            break;
          case ProposalEvent::Kind::ForcedL3Merge:
            ++stats_.merges;
            ++stats_.mergesForced;
            traceForcedMerge(ev);
            break;
          case ProposalEvent::Kind::L2Split:
            ++stats_.splits;
            traceSplit("l2", ev, msatNow_, false);
            break;
          case ProposalEvent::Kind::L3Split:
            ++stats_.splits;
            traceSplit("l3", ev, msatL3Now_, false);
            break;
          case ProposalEvent::Kind::ForcedL2Split:
            ++stats_.splits;
            ++stats_.splitsForced;
            traceSplit("l2", ev, msatNow_, true);
            break;
        }
        if (ev.asymmetric)
            ++stats_.asymmetricOutcomes;
    }
}

void
MorphController::epochBoundary(Hierarchy &hierarchy)
{
    ++stats_.decisions;

    // Injected ACFV soft errors land before the footprints are read,
    // like real upsets accumulated over the epoch.
    if (FaultInjector *faults = faultInjector()) {
        faults->injectAcfvFaults(hierarchy.l2());
        faults->injectAcfvFaults(hierarchy.l3());
    }

    if (quarantineLeft_ > 0) {
        quarantineEpoch(hierarchy);
        return;
    }

    if (config_.qosThrottling)
        throttleMsat(hierarchy);

    const CacheLevelModel &l2 = hierarchy.l2();
    const CacheLevelModel &l3 = hierarchy.l3();

    traceClassification("l2", l2, hierarchy.topology().l2, msatNow_);
    traceClassification("l3", l3, hierarchy.topology().l3,
                        msatL3Now_);

    const CacheLevelSignals l2_signals(l2);
    const CacheLevelSignals l3_signals(l3);
    DecisionInputs in;
    in.l2 = &l2_signals;
    in.l3 = &l3_signals;
    in.msatL2 = msatNow_;
    in.msatL3 = msatL3Now_;
    in.decisionIndex = stats_.decisions;
    in.l2MergeStamps = &l2MergeStamp_;
    in.l3MergeStamps = &l3MergeStamp_;
    in.faults = faultInjector();
    in.sharedAddressSpace = hierarchy.params().coherence;
    in.phaseCheck = [this](const Partition &l2_part,
                           const Partition &l3_part,
                           const char *phase) {
        return checkDecision(l2_part, l3_part, phase);
    };
    in.provenance = tracer_ && tracer_->enabled();

    TransitionProposal proposal =
        proposeTransition(hierarchy.topology(), in);
    // The pure decision is over; land its effects: activity
    // counters and provenance traces, in decision order. Abandoned
    // proposals keep the events decided before the failing phase,
    // exactly as the counters accumulated them historically.
    replayProposal(proposal);

    if (proposal.abandoned()) {
        handleViolation(hierarchy, true);
        hierarchy.resetFootprints();
        return;
    }

    mergedLastEpoch_ = proposal.merges > 0;

    // Stamp freshly merged groups for the split hysteresis.
    for (std::size_t g = 0; g < proposal.l2.size(); ++g) {
        if (proposal.l2MergedNow[g]) {
            for (SliceId s : proposal.l2[g])
                l2MergeStamp_[s] = stats_.decisions;
        }
    }
    for (std::size_t g = 0; g < proposal.l3.size(); ++g) {
        if (proposal.l3MergedNow[g]) {
            for (SliceId s : proposal.l3[g])
                l3MergeStamp_[s] = stats_.decisions;
        }
    }

    Topology topo;
    topo.numCores = numCores_;
    topo.l2 = std::move(proposal.l2);
    topo.l3 = std::move(proposal.l3);

    // Injected controller fault: corrupt the finished proposal into
    // an illegal shape before it reaches the reconfiguration engine.
    if (FaultInjector *faults = faultInjector())
        faults->corruptTopology(topo);

    if (checker_.enabled() &&
        checker_.report("epoch proposal",
                        checker_.checkTopology(topo, shapeRule()))) {
        handleViolation(hierarchy, true);
        hierarchy.resetFootprints();
        return;
    }

    if (!(topo == hierarchy.topology())) {
        ++stats_.activeEpochs;
        if (checker_.enabled()) {
            const auto before = InvariantChecker::snapshot(hierarchy);
            {
                ScopedPhaseTimer timer(ProfPhase::ReconfigApply);
                hierarchy.reconfigure(topo);
            }
            const auto violations =
                checker_.checkConservation(hierarchy, before);
            if (checker_.report("post-reconfiguration", violations))
                handleViolation(hierarchy, false);
        } else {
            ScopedPhaseTimer timer(ProfPhase::ReconfigApply);
            hierarchy.reconfigure(topo);
        }
        if (tracer_ && tracer_->enabled()) {
            const Topology &now = hierarchy.topology();
            TraceEvent ev("topology");
            ev.u64("l2Groups", now.l2.size())
                .u64("l3Groups", now.l3.size())
                .u64("merges", proposal.merges)
                .u64("splits", proposal.splits)
                .u64("symmetric", now.isSymmetric() ? 1 : 0);
            tracer_->emit(ev);
        }
    }
    hierarchy.resetFootprints();
}

void
MorphController::registerStats(StatsRegistry &registry) const
{
    const auto bind = [&registry](const std::string &name,
                                  const std::uint64_t &field,
                                  const std::string &desc) {
        registry.bindCounter(
            name, [&field]() { return field; }, desc);
    };

    bind("morph.decisions", stats_.decisions,
         "epoch decisions taken");
    bind("morph.merges", stats_.merges, "merges applied");
    bind("morph.splits", stats_.splits, "splits applied");
    bind("morph.merges.condI", stats_.mergesCondI,
         "merges via condition (i) capacity sharing");
    bind("morph.merges.condII", stats_.mergesCondII,
         "merges via condition (ii) data sharing");
    bind("morph.merges.forced", stats_.mergesForced,
         "L3 merges forced by inclusion");
    bind("morph.splits.forced", stats_.splitsForced,
         "L2 splits forced by inclusion");
    bind("morph.activeEpochs", stats_.activeEpochs,
         "epochs with at least one change");
    bind("morph.asymmetricOutcomes", stats_.asymmetricOutcomes,
         "events yielding asymmetric topologies");
    registry.bindScalar(
        "morph.msatHigh", [this]() { return msatNow_.high; },
        "live L2 MSAT high bound (QoS-throttled)");
    registry.bindScalar(
        "morph.msatLow", [this]() { return msatNow_.low; },
        "live L2 MSAT low bound (QoS-throttled)");

    const CheckStats &cs = checker_.stats();
    bind("check.checksRun", cs.checksRun, "invariant checks run");
    bind("check.detections", cs.violations,
         "invariant violations detected");
    for (std::size_t k = 0; k < numInvariantKinds; ++k) {
        bind(std::string("check.") +
                 invariantKindName(static_cast<InvariantKind>(k)),
             cs.byKind[k], "violations of this invariant kind");
    }

    bind("robust.violationEpochs", robust_.violationEpochs,
         "epoch decisions with a violation");
    bind("robust.droppedTopologies", robust_.droppedTopologies,
         "proposals dropped under the Log policy");
    bind("robust.quarantines", robust_.quarantines,
         "quarantine entries");
    bind("robust.quarantineEpochs", robust_.quarantineEpochs,
         "epoch decisions spent quarantined");
    bind("robust.recoveries", robust_.recoveries,
         "completed quarantines");

    if (const FaultInjector *faults = faultInjector()) {
        const FaultStats &fs = faults->stats();
        bind("fault.acfvBitFlips", fs.acfvBitFlips,
             "injected ACFV bit flips");
        bind("fault.classificationFlips", fs.classificationFlips,
             "injected classification inversions");
        bind("fault.illegalTopologies", fs.illegalTopologies,
             "injected illegal topology corruptions");
        bind("fault.busDrops", fs.busDrops,
             "injected bus grant drops");
        bind("fault.busDelays", fs.busDelays,
             "injected bus grant delays");
        bind("fault.busFaultCycles", fs.busFaultCycles,
             "extra bus cycles from injected faults");
    }
}

std::string
MorphController::robustnessReport() const
{
    const FaultInjector *faults = faultInjector();
    if (!checker_.enabled() && faults == nullptr)
        return "";
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    const CheckStats &cs = checker_.stats();
    counters.emplace_back("checks run", cs.checksRun);
    counters.emplace_back("violations detected", cs.violations);
    for (std::size_t k = 0; k < numInvariantKinds; ++k) {
        if (cs.byKind[k] == 0)
            continue;
        counters.emplace_back(
            std::string("violations: ") +
                invariantKindName(static_cast<InvariantKind>(k)),
            cs.byKind[k]);
    }
    counters.emplace_back("violation epochs", robust_.violationEpochs);
    counters.emplace_back("dropped proposals",
                          robust_.droppedTopologies);
    counters.emplace_back("quarantines entered", robust_.quarantines);
    counters.emplace_back("quarantine epochs",
                          robust_.quarantineEpochs);
    counters.emplace_back("recoveries", robust_.recoveries);
    if (faults != nullptr) {
        const FaultStats &fs = faults->stats();
        counters.emplace_back("injected ACFV bit flips",
                              fs.acfvBitFlips);
        counters.emplace_back("injected classification flips",
                              fs.classificationFlips);
        counters.emplace_back("injected illegal topologies",
                              fs.illegalTopologies);
        counters.emplace_back("injected bus grant drops", fs.busDrops);
        counters.emplace_back("injected bus grant delays",
                              fs.busDelays);
        counters.emplace_back("injected bus fault cycles",
                              fs.busFaultCycles);
    }
    return countersBlock(std::string("robustness [") +
                             checkPolicyName(checker_.policy()) + "]",
                         counters);
}

template <class Ar, class Self>
void
MorphController::checkpointFields(Ar &ar, Self &self)
{
    ar.f64(self.msatNow_.high);
    ar.f64(self.msatNow_.low);
    ar.f64(self.msatL3Now_.high);
    ar.f64(self.msatL3Now_.low);
    auto &stats = self.stats_;
    ar.u64(stats.merges);
    ar.u64(stats.splits);
    ar.u64(stats.mergesCondI);
    ar.u64(stats.mergesCondII);
    ar.u64(stats.mergesForced);
    ar.u64(stats.splitsForced);
    ar.u64(stats.activeEpochs);
    ar.u64(stats.decisions);
    ar.u64(stats.asymmetricOutcomes);
    ar.fixedVec("L2 merge stamps size", self.l2MergeStamp_);
    ar.fixedVec("L3 merge stamps size", self.l3MergeStamp_);
    ar.fixedVec("miss snapshot size", self.lastMissSnapshot_);
    ar.fixedVec("previous-epoch misses size", self.prevEpochMisses_);
    ar.b(self.havePrevEpoch_);
    ar.b(self.mergedLastEpoch_);
    ar.nested(self.checker_);
    auto &robust = self.robust_;
    ar.u64(robust.violationEpochs);
    ar.u64(robust.droppedTopologies);
    ar.u64(robust.quarantines);
    ar.u64(robust.quarantineEpochs);
    ar.u64(robust.recoveries);
    ar.u64(self.quarantineLeft_);
    ar.expectB("fault-injector presence", self.ownedFaults_ != nullptr);
    if (self.ownedFaults_)
        ar.nested(*self.ownedFaults_);
}

void
MorphController::saveState(CkptWriter &w) const
{
    checkpointFields(w, *this);
}

void
MorphController::loadState(CkptReader &r)
{
    checkpointFields(r, *this);
}

} // namespace morphcache
