#include "stats/cdf.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "snapshot/serializer.hh"

namespace dlsim::stats
{

void
SampleSet::add(double sample)
{
    samples_.push_back(sample);
    sorted_ = false;
}

void
SampleSet::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
           static_cast<double>(samples_.size());
}

double
SampleSet::min() const
{
    ensureSorted();
    return samples_.empty() ? 0.0 : samples_.front();
}

double
SampleSet::max() const
{
    ensureSorted();
    return samples_.empty() ? 0.0 : samples_.back();
}

double
SampleSet::percentile(double p) const
{
    assert(p >= 0.0 && p <= 100.0);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto n = samples_.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank > 0)
        --rank;
    if (rank >= n)
        rank = n - 1;
    return samples_[rank];
}

std::vector<std::pair<double, double>>
SampleSet::cdfPoints(std::size_t points) const
{
    std::vector<std::pair<double, double>> out;
    if (samples_.empty() || points == 0)
        return out;
    ensureSorted();
    out.reserve(points);
    const auto n = samples_.size();
    for (std::size_t i = 1; i <= points; ++i) {
        const double frac = static_cast<double>(i) /
                            static_cast<double>(points);
        auto idx = static_cast<std::size_t>(
            frac * static_cast<double>(n));
        if (idx > 0)
            --idx;
        out.emplace_back(samples_[idx], frac);
    }
    return out;
}

double
SampleSet::fractionBelow(double value) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it =
        std::upper_bound(samples_.begin(), samples_.end(), value);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

std::size_t
SampleSet::trimOutliers(double multiple)
{
    if (samples_.empty())
        return 0;
    const double cutoff = percentile(50.0) * multiple;
    ensureSorted();
    const auto it =
        std::upper_bound(samples_.begin(), samples_.end(), cutoff);
    const auto removed = static_cast<std::size_t>(samples_.end() - it);
    samples_.erase(it, samples_.end());
    return removed;
}

void
SampleSet::clear()
{
    samples_.clear();
    sorted_ = false;
}

void
SampleSet::save(snapshot::Serializer &s) const
{
    s.beginStruct("samples");
    s.u64(samples_.size());
    s.bytes(samples_.data(), samples_.size() * sizeof(double));
    s.endStruct();
}

void
SampleSet::load(snapshot::Deserializer &d)
{
    d.enterStruct("samples");
    samples_.resize(d.count<std::uint64_t>(sizeof(double)));
    d.bytes(samples_.data(), samples_.size() * sizeof(double));
    d.leaveStruct();
    sorted_ = false;
}

} // namespace dlsim::stats
