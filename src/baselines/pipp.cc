#include "baselines/pipp.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace morphcache {

UtilityMonitor::UtilityMonitor(std::uint64_t num_sets,
                               std::uint32_t total_ways,
                               std::uint32_t sample_shift)
    : numSets_(num_sets), totalWays_(total_ways),
      sampleShift_(sample_shift),
      stacks_(num_sets >> sample_shift),
      hits_(total_ways, 0)
{
    MC_ASSERT(total_ways > 0);
    MC_ASSERT((num_sets >> sample_shift) > 0);
    // access() inserts at MRU before trimming to totalWays_, so a
    // stack transiently holds totalWays_ + 1 entries. Reserving
    // that up front makes the steady-state ATD update
    // allocation-free instead of lazily growing per sampled set.
    for (auto &stack : stacks_)
        stack.reserve(std::size_t{total_ways} + 1);
}

void
UtilityMonitor::access(Addr line_addr)
{
    const std::uint64_t set = line_addr & (numSets_ - 1);
    if (set & ((1ULL << sampleShift_) - 1))
        return; // not a sampled set
    auto &stack = stacks_[set >> sampleShift_];

    for (std::size_t pos = 0; pos < stack.size(); ++pos) {
        if (stack[pos] == line_addr) {
            ++hits_[pos];
            // Move to MRU.
            stack.erase(stack.begin() +
                        static_cast<std::ptrdiff_t>(pos));
            stack.insert(stack.begin(), line_addr);
            return;
        }
    }
    // ATD miss: insert at MRU, bounded by the monitored ways.
    stack.insert(stack.begin(), line_addr);
    if (stack.size() > totalWays_)
        stack.pop_back();
}

std::uint64_t
UtilityMonitor::utility(std::uint32_t ways) const
{
    MC_ASSERT(ways <= totalWays_);
    std::uint64_t sum = 0;
    for (std::uint32_t p = 0; p < ways; ++p)
        sum += hits_[p];
    return sum;
}

void
UtilityMonitor::decay()
{
    for (auto &h : hits_)
        h /= 2;
}

void
lookaheadAllocate(const std::vector<UtilityMonitor> &monitors,
                  std::uint32_t total_ways,
                  std::vector<std::uint32_t> &alloc,
                  std::vector<std::uint64_t> &prefix)
{
    const auto cores = static_cast<std::uint32_t>(monitors.size());
    MC_ASSERT(cores > 0 && total_ways >= cores);
    alloc.assign(cores, 1);
    std::uint32_t balance = total_ways - cores;

    // Prefix sums of the hit counters make utility lookups O(1):
    // core c's sums are prefix[c * stride + 0 .. total_ways].
    const std::size_t stride = std::size_t{total_ways} + 1;
    prefix.assign(cores * stride, 0);
    for (std::uint32_t c = 0; c < cores; ++c) {
        const auto &hits = monitors[c].hits();
        MC_ASSERT(hits.size() >= total_ways);
        std::uint64_t *sums = &prefix[c * stride];
        for (std::uint32_t p = 0; p < total_ways; ++p)
            sums[p + 1] = sums[p] + hits[p];
    }

    while (balance > 0) {
        double best_mu = -1.0;
        std::uint32_t best_core = 0;
        std::uint32_t best_k = 1;
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::uint32_t room =
                std::min(balance, total_ways - alloc[c]);
            const std::uint64_t *sums = &prefix[c * stride];
            const std::uint64_t base = sums[alloc[c]];
            for (std::uint32_t k = 1; k <= room; ++k) {
                const double mu =
                    static_cast<double>(sums[alloc[c] + k] - base) /
                    static_cast<double>(k);
                if (mu > best_mu) {
                    best_mu = mu;
                    best_core = c;
                    best_k = k;
                }
            }
        }
        if (best_mu <= 0.0) {
            // No remaining utility anywhere: spread the rest evenly.
            for (std::uint32_t c = 0; balance > 0; ++c) {
                if (alloc[c % cores] < total_ways) {
                    ++alloc[c % cores];
                    --balance;
                }
            }
            break;
        }
        alloc[best_core] += best_k;
        balance -= best_k;
    }
}

PippPolicy::PippPolicy(std::uint32_t num_cores, std::uint64_t num_sets,
                       std::uint32_t total_ways,
                       double promotion_prob, std::uint64_t seed)
    : totalWays_(total_ways),
      promotionCut_(Rng::chanceThreshold(promotion_prob)), rng_(seed)
{
    monitors_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        monitors_.emplace_back(num_sets, total_ways);
    alloc_.assign(num_cores, std::max(1u, total_ways / num_cores));
    prefixScratch_.reserve(std::size_t{num_cores} *
                           (std::size_t{total_ways} + 1));
}

bool
PippPolicy::hit(CacheLevelModel &level, CoreId core, Addr line_addr,
                SliceId slice, std::uint64_t set, std::uint32_t way)
{
    monitors_[core].access(line_addr);
    if (rng_.chanceAt(promotionCut_))
        level.promoteByOne(slice, set, way);
    return false; // no default move-to-MRU
}

void
PippPolicy::miss(CacheLevelModel &level, CoreId core, Addr line_addr)
{
    (void)level;
    monitors_[core].access(line_addr);
}

bool
PippPolicy::insert(CacheLevelModel &level, CoreId core,
                   Addr line_addr, bool dirty, InsertOutcome &out)
{
    const std::uint32_t position =
        alloc_[core] > 0 ? alloc_[core] - 1 : 0;
    out = level.insertAtStackPosition(core, line_addr, dirty,
                                      position);
    return true;
}

void
PippPolicy::epochBoundary()
{
    lookaheadAllocate(monitors_, totalWays_, alloc_, prefixScratch_);
    for (auto &monitor : monitors_)
        monitor.decay();
}

std::uint32_t
PippPolicy::allocation(CoreId core) const
{
    MC_ASSERT(core < alloc_.size());
    return alloc_[core];
}

namespace {

/** The paper's single-step promotion probability. */
constexpr double pippPromotionProb = 0.75;
/** Seed of the L2's promotion coin; the L3's is seeded apart. */
constexpr std::uint64_t pippSeed = 0x9199;

} // namespace

std::unique_ptr<StaticTopologySystem>
makePippSystem(HierarchyParams params)
{
    // PIPP was proposed for non-inclusive shared LLCs; inclusion
    // back-invalidation would punish its near-LRU insertions twice.
    params.inclusive = false;
    const std::uint32_t cores = params.numCores;
    const auto policy = [cores](const LevelParams &level,
                                std::uint64_t seed) {
        return std::make_unique<PippPolicy>(
            cores, level.sliceGeom.numSets(),
            level.sliceGeom.assoc * cores, pippPromotionProb, seed);
    };
    std::unique_ptr<PippPolicy> l2 = policy(params.l2, pippSeed);
    std::unique_ptr<PippPolicy> l3 = policy(params.l3, pippSeed ^ 0x3333);
    return std::make_unique<StaticTopologySystem>(
        std::move(params), Topology::symmetric(cores, cores, 1, 1),
        RemoteCost::None, "PIPP", std::move(l2), std::move(l3));
}

} // namespace morphcache
