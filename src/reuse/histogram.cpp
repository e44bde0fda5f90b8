#include "reuse/histogram.hpp"

#include <algorithm>
#include <bit>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace spmvcache {

CapacityMissCounter::CapacityMissCounter(
    std::vector<std::uint64_t> capacities, const SampleFilter& filter)
    : capacities_(std::move(capacities)) {
    SPMV_EXPECTS(!capacities_.empty());
    std::sort(capacities_.begin(), capacities_.end());
    capacities_.erase(std::unique(capacities_.begin(), capacities_.end()),
                      capacities_.end());
    SPMV_EXPECTS(capacities_.front() >= 1);
    // sampled_threshold is monotone, so ascending capacities give
    // ascending boundaries; equal neighbours share one.
    for (const std::uint64_t capacity : capacities_) {
        const std::uint64_t boundary = filter.sampled_threshold(capacity);
        if (boundaries_.empty() || boundaries_.back() != boundary)
            boundaries_.push_back(boundary);
        first_miss_.push_back(
            static_cast<std::uint32_t>(boundaries_.size()));
    }
    tallies_.assign(boundaries_.size() + 1, 0);
}

std::uint32_t CapacityMissCounter::first_miss_group(
    std::uint64_t capacity) const {
    const auto it = std::lower_bound(capacities_.begin(), capacities_.end(),
                                     capacity);
    SPMV_EXPECTS(it != capacities_.end() && *it == capacity);
    return first_miss_[static_cast<std::size_t>(it - capacities_.begin())];
}

void CapacityMissCounter::resolve_cold(std::uint32_t group) {
    SPMV_EXPECTS(tallies_.back() > 0 && group < boundaries_.size());
    --tallies_.back();
    ++tallies_[group];
}

std::uint64_t CapacityMissCounter::total_misses(
    std::uint64_t capacity) const {
    // Summed tallies are bounded by the accesses, but merged multi-shard
    // counters get close to the matrix's total reference count — keep
    // the accumulation checked.
    std::uint64_t misses = 0;
    for (std::size_t g = first_miss_group(capacity); g < tallies_.size(); ++g)
        SPMV_EXPECTS(checked_add(misses, tallies_[g], misses));
    return misses;
}

std::uint64_t CapacityMissCounter::accesses() const {
    std::uint64_t n = 0;
    for (const std::uint64_t tally : tallies_)
        SPMV_EXPECTS(checked_add(n, tally, n));
    return n;
}

void ReuseHistogram::record(std::uint64_t distance) noexcept {
    ++total_;
    if (distance == kInfiniteDistance) {
        ++cold_;
        return;
    }
    const int b = distance == 0
                      ? 0
                      : 64 - std::countl_zero(distance);
    ++counts_[static_cast<std::size_t>(std::min(b, kBuckets - 1))];
}

double ReuseHistogram::misses_at_least(std::uint64_t capacity) const {
    double misses = static_cast<double>(cold_);
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t lo = b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
        const std::uint64_t hi = b == 0 ? 1 : (std::uint64_t{1} << b);
        if (lo >= capacity) {
            misses += static_cast<double>(counts_[static_cast<std::size_t>(b)]);
        } else if (hi > capacity) {
            // Straddling bucket: apportion uniformly.
            const double fraction =
                static_cast<double>(hi - capacity) /
                static_cast<double>(hi - lo);
            misses += fraction *
                      static_cast<double>(counts_[static_cast<std::size_t>(b)]);
        }
    }
    return misses;
}

void ReuseHistogram::merge(const ReuseHistogram& other) noexcept {
    for (int b = 0; b < kBuckets; ++b)
        counts_[static_cast<std::size_t>(b)] +=
            other.counts_[static_cast<std::size_t>(b)];
    cold_ += other.cold_;
    total_ += other.total_;
}

void ReuseHistogram::clear() noexcept {
    counts_.fill(0);
    cold_ = 0;
    total_ = 0;
}

}  // namespace spmvcache
