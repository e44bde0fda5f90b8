// Exact miss classes at a fixed set of capacities: Kim, Hill & Wood's
// grouped LRU stack [SIGMETRICS'91] with one group per priced capacity.
//
// The model never needs a reference's full reuse distance. Every consumer
// prices a fixed list of cache capacities through CapacityMissCounter, so
// all it asks of an access is which of those capacities the distance
// reaches. Kim et al. split the LRU stack into groups and find a line's
// group through a hash map, at a cost per access that does not depend on
// the trace's locality; their distances are approximate because a group
// spans many stack positions. Placing the group boundaries exactly at the
// priced capacities makes that approximation lossless for the prices:
// group i holds stack positions [c(i-1), c(i)), so a line found in group
// i has a reuse distance in that interval and clears exactly the
// capacities c(0) .. c(i-1). A line pushed past the largest capacity can
// only miss again, so the stack stops there and forgets it.
//
// The engine therefore reports a *class-exact* distance: 0 for group 0,
// the group's lower boundary c(i-1) for group i, and kInfiniteDistance
// for a line that is not resident (never seen, or evicted past the
// largest capacity). For every configured capacity c, (reported >= c)
// holds exactly when (true distance >= c) does — which is all
// CapacityMissCounter::total_misses reads. It does not implement
// ReuseEngine's full-distance contract, and is not a ReuseEngine.
//
// The stack is one LRU list whose groups are consecutive segments, as in
// Kim et al.: moving a group's LRU line into the next group relabels it
// in place. Cost per access: one hash probe, an unlink and push-front,
// and at most one such relabel per group above the line's old group
// (plus one eviction when the stack is full). Memory is bounded by the
// largest capacity: at most that many resident lines, each one node and
// one map entry, grown lazily as lines arrive.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "reuse/engine.hpp"
#include "reuse/flat_map.hpp"
#include "trace/sample.hpp"

namespace spmvcache {

/// Grouped LRU stack whose group boundaries are the priced capacities.
class CapacityStackEngine {
public:
    /// Prices `capacities` (in lines; any order, duplicates allowed) for a
    /// run filtered by `filter`: each group boundary is
    /// filter.sampled_threshold(capacity), so that
    /// filter.scale_distance(reported) >= capacity exactly when the scaled
    /// true distance is (the boundary is the capacity itself when the
    /// filter is exact). Pre: capacities non-empty, every capacity in
    /// [1, 2^32 - 1).
    explicit CapacityStackEngine(std::span<const std::uint64_t> capacities,
                                 const SampleFilter& filter = {});

    /// Processes one access and returns its class-exact distance.
    std::uint64_t access_one(std::uint64_t line);

    /// Processes `n` accesses, writing each class-exact distance to
    /// `dists`; identical results to n access_one() calls in order.
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n);

    /// Lines currently on the stack; never more than the largest boundary.
    [[nodiscard]] std::uint64_t resident_lines() const noexcept {
        return node_of_line_.size();
    }

private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    // Intrusive doubly-linked node in a pool; `group` locates the line on
    // a hit without walking the stack.
    struct Node {
        std::uint64_t line = 0;
        std::uint32_t prev = kNil;  ///< more recent neighbour
        std::uint32_t next = kNil;  ///< less recent neighbour
        std::uint32_t group = 0;
    };
    // A segment of the list; its most recent line follows the previous
    // group's tail (or is the list head, for group 0).
    struct Group {
        std::uint32_t tail = kNil;   ///< least recent line of the group
        std::uint64_t size = 0;
        std::uint64_t capacity = 0;  ///< boundary(i) - boundary(i-1)
        std::uint64_t lower = 0;     ///< distance reported for its hits
    };

    void unlink(std::uint32_t node) noexcept;
    /// Makes `node` the most recent line, in group 0.
    void push_front(std::uint32_t node) noexcept;
    /// A pool node for a new line: the one the last eviction freed, or a
    /// fresh one.
    std::uint32_t allocate(std::uint64_t line);

    std::vector<Group> groups_;
    std::vector<Node> nodes_;
    std::uint32_t head_ = kNil;   ///< most recent line of the stack
    std::uint32_t spare_ = kNil;  ///< node freed by the last eviction
    FlatMap64 node_of_line_;      ///< resident line -> index into nodes_
};

}  // namespace spmvcache
