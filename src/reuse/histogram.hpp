// Miss counting at a fixed set of capacities (Eq. 1 of the paper), and
// reuse-distance histograms for profiling output.
//
// CapacityMissCounter prices a *fixed set* of cache capacities exactly in
// one pass — the mechanism behind the paper's observation that reuse
// distance, once computed, "allows one to assess cache behavior for
// arbitrary cache sizes": a single stack-processing pass yields the miss
// count of every sector-cache configuration. It tallies accesses per
// group of a CapacityStackEngine (reuse/capacity_stack.hpp) and builds
// that engine's group boundaries, so the two agree on the groups by
// construction.
//
// ReuseHistogram keeps a log2-spaced distribution for profiling output.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "reuse/engine.hpp"
#include "trace/sample.hpp"

namespace spmvcache {

/// Exact miss counts at a list of capacities (in cache lines), tallied
/// per capacity-stack group.
class CapacityMissCounter {
public:
    /// Prices `capacities` (any order, duplicates allowed) for a run
    /// filtered by `filter`. Each capacity's group boundary is
    /// filter.sampled_threshold(capacity), the capacity itself when the
    /// filter is exact: a kept distance d reaches the boundary exactly
    /// when filter.scale_distance(d) reaches the capacity. Capacities that
    /// share a boundary share a group. Pre: capacities non-empty, each at
    /// least 1.
    explicit CapacityMissCounter(std::vector<std::uint64_t> capacities,
                                 const SampleFilter& filter = {});

    /// The distinct boundaries, ascending: the ones to build the
    /// CapacityStackEngine whose groups this counter tallies.
    [[nodiscard]] const std::vector<std::uint64_t>& boundaries()
        const noexcept {
        return boundaries_;
    }

    /// The first group whose accesses miss in a cache of `capacity`
    /// lines: the one `capacity`'s boundary opens. Pre: capacity is one of
    /// the constructor capacities.
    [[nodiscard]] std::uint32_t first_miss_group(
        std::uint64_t capacity) const;

    /// Records one access in `group`: the engine's answer, where
    /// boundaries().size() means not on the stack.
    void record(std::uint32_t group) noexcept { ++tallies_[group]; }

    /// Moves one access recorded off the stack into `group`: the group of
    /// a period's first access to a line is known only once the period
    /// closes (CapacityStackEngine::close_period). Pre: an access is
    /// recorded off the stack, group < boundaries().size().
    void resolve_cold(std::uint32_t group);

    /// Accesses that miss in a cache of `capacity` lines, cold misses
    /// included. Pre: capacity is one of the constructor capacities.
    [[nodiscard]] std::uint64_t total_misses(std::uint64_t capacity) const;

    /// Accesses recorded.
    [[nodiscard]] std::uint64_t accesses() const;

private:
    std::vector<std::uint64_t> capacities_;  // ascending, distinct
    std::vector<std::uint32_t> first_miss_;  // per capacity
    std::vector<std::uint64_t> boundaries_;  // ascending, distinct
    // tallies_[i] counts the accesses of group i; the last entry those
    // not on the stack.
    std::vector<std::uint64_t> tallies_;
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
