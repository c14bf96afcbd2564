/**
 * @file
 * A small statistics package: scalar counters, running moments,
 * histograms, and Pearson correlation.
 *
 * The paper's evaluation is built from a handful of aggregate
 * statistics (throughput, weighted/fair speedup, correlation
 * coefficients against an oracle, temporal/spatial standard
 * deviations of footprints); everything needed to compute those
 * lives here.
 */

#ifndef MORPHCACHE_STATS_STATS_HH
#define MORPHCACHE_STATS_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serial.hh"

namespace morphcache {

/**
 * Running mean / variance accumulator (Welford's algorithm).
 *
 * Numerically stable for long runs; used for the temporal and
 * spatial standard deviations reported in Table 4.
 */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
    }

    /** Number of samples folded in so far. */
    std::uint64_t count() const { return n_; }

    /** Sample mean (0 when empty). */
    double mean() const { return mean_; }

    /** Population variance (0 with fewer than 2 samples). */
    double
    variance() const
    {
        return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
    }

    /** Population standard deviation. */
    double stddev() const;

    /** Reset to the empty state. */
    void
    reset()
    {
        n_ = 0;
        mean_ = 0.0;
        m2_ = 0.0;
    }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Pearson correlation coefficient between two equal-length sample
 * vectors. Returns 0 when either vector has zero variance or fewer
 * than two samples (matching the "no information" interpretation
 * used for Figure 5).
 */
double pearsonCorrelation(const std::vector<double> &xs,
                          const std::vector<double> &ys);

/** Arithmetic mean of a sample vector (0 when empty). */
double mean(const std::vector<double> &xs);

/** Population standard deviation of a sample vector. */
double stddev(const std::vector<double> &xs);

/** Harmonic mean of a sample vector; 0 if any element is <= 0. */
double harmonicMean(const std::vector<double> &xs);

/** Geometric mean of a sample vector; 0 if any element is <= 0. */
double geometricMean(const std::vector<double> &xs);

/**
 * Fixed-width histogram over [lo, hi) with out-of-range samples
 * clamped into the edge buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first bucket.
     * @param hi Upper edge of the last bucket (must exceed lo).
     * @param buckets Number of buckets (must be nonzero).
     */
    Histogram(double lo, double hi, std::size_t buckets);

    /** Record one sample. */
    void add(double x);

    /** Count in bucket i. */
    std::uint64_t bucketCount(std::size_t i) const;

    /** Number of buckets. */
    std::size_t numBuckets() const { return counts_.size(); }

    /** Total samples recorded. */
    std::uint64_t totalCount() const { return total_; }

    /** Lower edge of bucket i. */
    double bucketLo(std::size_t i) const;

    /** Serialize/restore bucket counts (shape must match). */
    void saveState(CkptWriter &w) const { checkpointFields(w, *this); }
    void loadState(CkptReader &r) { checkpointFields(r, *this); }

  private:
    template <class Ar, class Self>
    static void
    checkpointFields(Ar &ar, Self &self)
    {
        ar.fixedVec("histogram bucket count", self.counts_);
        ar.u64(self.total_);
    }

    double lo_; // ckpt: derived(Histogram)
    double hi_; // ckpt: derived(Histogram)
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace morphcache

#endif // MORPHCACHE_STATS_STATS_HH
