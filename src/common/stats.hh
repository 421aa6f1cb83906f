/**
 * @file
 * Lightweight statistics collection: running summaries, histograms,
 * and named counter groups, in the spirit of gem5's stats package but
 * sized for this project.
 */

#ifndef PCMSCRUB_COMMON_STATS_HH
#define PCMSCRUB_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcmscrub {

/**
 * Streaming summary of a scalar sample set (Welford's algorithm).
 */
class SummaryStats
{
  public:
    /** Add one observation. */
    void add(double x);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double max() const;

    /** Unbiased sample variance; zero with fewer than two samples. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-width histogram over [lo, hi) with overflow/underflow bins.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, unsigned bins);

    void add(double x, std::uint64_t weight = 1);

    std::uint64_t total() const { return total_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    unsigned bins() const { return static_cast<unsigned>(counts_.size()); }
    std::uint64_t binCount(unsigned bin) const { return counts_.at(bin); }

    /** Lower edge of a bin. */
    double binLow(unsigned bin) const;

    /** Approximate quantile (linear interpolation within a bin). */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * A named group of integer counters. Policies
 * and controllers expose their event counts through one of these so
 * tests and benches can read them uniformly.
 */
class CounterGroup
{
  public:
    explicit CounterGroup(std::string name) : name_(std::move(name)) {}

    /** Add to (creating if needed) a counter. */
    void add(const std::string &key, std::uint64_t delta = 1);

    /** Read a counter; zero if never touched. */
    std::uint64_t get(const std::string &key) const;

    const std::string &name() const { return name_; }
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_COMMON_STATS_HH
