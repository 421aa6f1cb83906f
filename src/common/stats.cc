#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pcmscrub {

void
SummaryStats::add(double x)
{
    max_ = count_ == 0 ? x : std::max(max_, x);
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
SummaryStats::max() const
{
    return count_ ? max_ : 0.0;
}

double
SummaryStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
SummaryStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, unsigned bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    PCMSCRUB_ASSERT(hi > lo, "histogram range must be non-empty");
    PCMSCRUB_ASSERT(bins > 0, "histogram needs at least one bin");
    width_ = (hi - lo) / static_cast<double>(bins);
}

void
Histogram::add(double x, std::uint64_t weight)
{
    total_ += weight;
    if (x < lo_) {
        underflow_ += weight;
        return;
    }
    if (x >= hi_) {
        overflow_ += weight;
        return;
    }
    const auto bin = static_cast<unsigned>((x - lo_) / width_);
    counts_[std::min<unsigned>(bin, bins() - 1)] += weight;
}

double
Histogram::binLow(unsigned bin) const
{
    return lo_ + width_ * static_cast<double>(bin);
}

double
Histogram::quantile(double q) const
{
    PCMSCRUB_ASSERT(q >= 0.0 && q <= 1.0, "quantile needs q in [0,1]");
    if (total_ == 0)
        return lo_;
    const double target = q * static_cast<double>(total_);
    double cum = static_cast<double>(underflow_);
    if (cum >= target)
        return lo_;
    for (unsigned bin = 0; bin < bins(); ++bin) {
        const double next = cum + static_cast<double>(counts_[bin]);
        if (next >= target && counts_[bin] > 0) {
            const double frac = (target - cum) /
                static_cast<double>(counts_[bin]);
            return binLow(bin) + frac * width_;
        }
        cum = next;
    }
    return hi_;
}

void
CounterGroup::add(const std::string &key, std::uint64_t delta)
{
    counters_[key] += delta;
}

std::uint64_t
CounterGroup::get(const std::string &key) const
{
    const auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second;
}

} // namespace pcmscrub
