#include "reuse/histogram.hpp"

#include <algorithm>
#include <bit>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace spmvcache {

CapacityMissCounter::CapacityMissCounter(
    std::vector<std::uint64_t> capacities)
    : capacities_(std::move(capacities)) {
    SPMV_EXPECTS(!capacities_.empty());
    std::sort(capacities_.begin(), capacities_.end());
    capacities_.erase(std::unique(capacities_.begin(), capacities_.end()),
                      capacities_.end());
    buckets_.assign(capacities_.size() + 1, 0);
}

void CapacityMissCounter::record(std::uint64_t distance) noexcept {
    ++accesses_;
    if (distance == kInfiniteDistance) {
        ++cold_;
        return;
    }
    ++buckets_[bucket_of(distance)];
}

void CapacityMissCounter::resolve_cold(std::uint64_t distance) {
    SPMV_EXPECTS(cold_ > 0 && distance != kInfiniteDistance);
    --cold_;
    ++buckets_[bucket_of(distance)];
}

std::size_t CapacityMissCounter::bucket_of(
    std::uint64_t distance) const noexcept {
    // First capacity strictly greater than distance -> bucket index. The
    // iterator difference is non-negative and at most capacities_.size(),
    // so the narrowing to size_t cannot lose a bucket; the contract
    // pins that reasoning (record() is the per-reference hot path — the
    // bool-flavoured check compiles to a compare, no allocation).
    const auto it = std::upper_bound(capacities_.begin(), capacities_.end(),
                                     distance);
    std::size_t bucket = 0;
    SPMV_EXPECT(checked_narrow(it - capacities_.begin(), bucket));
    return bucket;
}

std::uint64_t CapacityMissCounter::capacity_misses(
    std::uint64_t capacity) const {
    const auto it = std::lower_bound(capacities_.begin(), capacities_.end(),
                                     capacity);
    SPMV_EXPECTS(it != capacities_.end() && *it == capacity);
    // Misses at capacity c_i: every access with distance >= c_i, i.e. all
    // buckets above index i. The sum of bucket counts is bounded by
    // accesses_, but merged multi-shard counters get close to the matrix's
    // total reference count — keep the accumulation checked.
    std::uint64_t misses = 0;
    for (std::size_t b = static_cast<std::size_t>(it - capacities_.begin()) + 1;
         b < buckets_.size(); ++b)
        SPMV_EXPECT(checked_add(misses, buckets_[b], misses));
    return misses;
}

void CapacityMissCounter::clear() noexcept {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    cold_ = 0;
    accesses_ = 0;
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
