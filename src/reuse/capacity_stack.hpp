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
// The engine therefore reports each access's *group*: i for a line found
// in group i, which misses at exactly the capacities c(0) .. c(i-1), and
// groups() for a line that is not on the stack (never seen, or evicted
// past the largest capacity), which misses at all of them. A tally per
// group is all CapacityMissCounter (reuse/histogram.hpp) needs to price
// every capacity. The counter also builds the boundaries, moving each to
// its SHARDS threshold when the run samples (DESIGN.md §10.1), and the
// engine runs on them. It reports no distance.
//
// The stack is one LRU list whose groups are consecutive segments, as in
// Kim et al.: moving a group's LRU line into the next group relabels it
// in place. Cost per access: one hash probe, an unlink and push-front,
// and at most one such relabel per group above the line's old group
// (plus one eviction when the stack is full). Memory is bounded by the
// largest capacity: at most that many resident lines, each one node and
// one map entry, grown lazily as lines arrive, plus at most that many
// ghost entries (below).
//
// A trace that repeats — one SpMV iteration after another — needs only
// one pass. A reference whose previous access to its line falls in the
// same period has the same distance in every period, so only a period's
// first access to each line differs between a warm-up pass and a counted
// one: the pass reports it cold, the counted pass would have found the
// line where the period's end left it. close_period() finds those
// accesses' groups from the final stack (DESIGN.md §12). To do so the
// engine ranks the first L distinct lines by first sighting (L = the largest
// boundary; a line first seen later has a first-access distance of at
// least L, a miss at every capacity). An evicted ranked line stays in the
// map as a ghost that keeps its rank, so a line that returns is not
// ranked again.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "reuse/flat_map.hpp"

namespace spmvcache {

/// Grouped LRU stack whose group boundaries are the priced capacities.
class CapacityStackEngine {
public:
    /// Group i holds stack positions [boundaries[i-1], boundaries[i])
    /// (CapacityMissCounter::boundaries() gives the ones a counter
    /// tallies). Pre: boundaries non-empty and strictly ascending, the
    /// first at least 1, the last below 2^32 - 1.
    explicit CapacityStackEngine(std::span<const std::uint64_t> boundaries);

    /// Processes one access and returns its group: groups() when the
    /// line is not on the stack.
    std::uint32_t access(std::uint64_t line);

    /// Processes `n` accesses, writing each one's group to `groups`;
    /// identical results to n access() calls in order.
    void access_batch(const std::uint64_t* lines, std::uint32_t* groups,
                      std::size_t n);

    /// Receives a line and the group of its first access in the next
    /// period.
    using PeriodFn =
        std::function<void(std::uint64_t line, std::uint32_t group)>;

    /// Treats the accesses so far as one period of a trace that repeats
    /// and calls fn(line, group) for every line whose first access in the
    /// next period would be found on the stack, with that access's group.
    /// That access was reported off the stack in this pass; every other
    /// access of the next period would report what it did in this one.
    /// So one pass plus this close counts exactly what a warm-up pass
    /// plus a counted pass would. The stack is unchanged. Cost:
    /// O(L log L) for the largest boundary L.
    void close_period(const PeriodFn& fn) const;

    /// The number of groups, which is also the group reported for a line
    /// that is not on the stack.
    [[nodiscard]] std::uint32_t groups() const noexcept {
        return static_cast<std::uint32_t>(groups_.size());
    }

    /// Lines currently on the stack; never more than the largest boundary.
    [[nodiscard]] std::uint64_t resident_lines() const noexcept;

private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    // Intrusive doubly-linked node in a pool; `group` locates the line on
    // a hit without walking the stack.
    struct Node {
        std::uint64_t line = 0;
        std::uint32_t prev = kNil;  ///< more recent neighbour
        std::uint32_t next = kNil;  ///< less recent neighbour
        std::uint32_t group = 0;
        /// Order of first sighting, kNil past the largest boundary.
        std::uint32_t rank = kNil;
    };
    // A segment of the list; its most recent line follows the previous
    // group's tail (or is the list head, for group 0).
    struct Group {
        std::uint32_t tail = kNil;   ///< least recent line of the group
        std::uint64_t size = 0;
        std::uint64_t capacity = 0;  ///< boundary(i) - boundary(i-1)
        std::uint64_t upper = 0;     ///< boundary(i)
    };

    void unlink(std::uint32_t node) noexcept;
    /// Makes `node` the most recent line, in group 0.
    void push_front(std::uint32_t node) noexcept;
    /// A pool node for a new line: the one the last eviction freed, or a
    /// fresh one.
    std::uint32_t allocate(std::uint64_t line, std::uint32_t rank);

    std::vector<Group> groups_;
    std::vector<Node> nodes_;
    std::uint32_t head_ = kNil;   ///< most recent line of the stack
    std::uint32_t spare_ = kNil;  ///< node freed by the last eviction
    std::uint64_t limit_ = 0;     ///< the largest boundary
    std::uint32_t ranked_ = 0;    ///< lines ranked so far, at most limit_
    /// Resident line -> index into nodes_. An evicted ranked line maps to
    /// a ghost: kNil in the low half, its rank in the high half.
    FlatMap64 node_of_line_;
};

}  // namespace spmvcache
