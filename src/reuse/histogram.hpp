// Miss counting from reuse distances (Eq. 1 of the paper).
//
// CapacityMissCounter prices a *fixed set* of cache capacities exactly in
// one pass — the mechanism behind the paper's observation that reuse
// distance, once computed, "allows one to assess cache behavior for
// arbitrary cache sizes": a single stack-processing pass yields the miss
// count of every sector-cache configuration.
//
// ReuseHistogram keeps a log2-spaced distribution for profiling output.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "reuse/engine.hpp"

namespace spmvcache {

/// Exact miss counts at a sorted list of capacities (in cache lines).
class CapacityMissCounter {
public:
    /// Pre: capacities non-empty; duplicates are removed.
    explicit CapacityMissCounter(std::vector<std::uint64_t> capacities);

    /// Records one access with reuse distance `distance`.
    void record(std::uint64_t distance) noexcept;

    /// Moves one access already recorded as cold into the class of
    /// `distance`: the distance of a period's first access to a line is
    /// known only once the period closes
    /// (CapacityStackEngine::close_period). Pre: a cold access is
    /// recorded, distance != kInfiniteDistance.
    void resolve_cold(std::uint64_t distance);

    /// Accesses with distance >= capacity, *excluding* cold (first-ever)
    /// accesses. Pre: capacity is one of the constructor capacities.
    [[nodiscard]] std::uint64_t capacity_misses(std::uint64_t capacity) const;

    /// Total misses for a cache of `capacity` lines including cold misses.
    [[nodiscard]] std::uint64_t total_misses(std::uint64_t capacity) const {
        return capacity_misses(capacity) + cold_;
    }

    [[nodiscard]] std::uint64_t cold_misses() const noexcept { return cold_; }
    [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

    void clear() noexcept;

    [[nodiscard]] const std::vector<std::uint64_t>& capacities()
        const noexcept {
        return capacities_;
    }

private:
    /// The bucket a finite `distance` falls in.
    [[nodiscard]] std::size_t bucket_of(std::uint64_t distance) const noexcept;

    std::vector<std::uint64_t> capacities_;  // ascending
    // buckets_[i] counts distances in [capacities_[i-1], capacities_[i]),
    // buckets_[0]: < capacities_[0], buckets_[k]: >= capacities_[k-1].
    std::vector<std::uint64_t> buckets_;
    std::uint64_t cold_ = 0;
    std::uint64_t accesses_ = 0;
};

/// Log2-bucketed reuse-distance distribution (bucket b holds distances in
/// [2^(b-1), 2^b), bucket 0 holds distance 0).
class ReuseHistogram {
public:
    static constexpr int kBuckets = 64;

    void record(std::uint64_t distance) noexcept;

    [[nodiscard]] std::uint64_t bucket(int b) const {
        return counts_.at(static_cast<std::size_t>(b));
    }
    [[nodiscard]] std::uint64_t cold() const noexcept { return cold_; }
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    /// Accesses with distance >= capacity, approximated at bucket
    /// granularity (distances inside the straddling bucket are
    /// apportioned assuming a uniform distribution).
    [[nodiscard]] double misses_at_least(std::uint64_t capacity) const;

    void merge(const ReuseHistogram& other) noexcept;
    void clear() noexcept;

private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t cold_ = 0;
    std::uint64_t total_ = 0;
};

}  // namespace spmvcache
