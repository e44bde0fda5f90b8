#include "reuse/capacity_stack.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache {

namespace {

/// A map value for an evicted ranked line.
constexpr std::uint64_t ghost(std::uint32_t rank) noexcept {
    return (std::uint64_t{rank} << 32) | ~std::uint32_t{0};
}

}  // namespace

CapacityStackEngine::CapacityStackEngine(
    std::span<const std::uint64_t> boundaries) {
    SPMV_EXPECTS(!boundaries.empty() && boundaries.front() >= 1);
    SPMV_EXPECTS(std::adjacent_find(boundaries.begin(), boundaries.end(),
                                    std::greater_equal<>()) ==
                 boundaries.end());
    // Node indices are 32-bit and the pool never outgrows the largest
    // boundary by more than the one line an eviction is about to free.
    SPMV_EXPECTS(boundaries.back() < kNil);
    std::uint64_t lower = 0;
    for (const std::uint64_t boundary : boundaries) {
        Group group;
        group.capacity = boundary - lower;
        group.upper = boundary;
        groups_.push_back(group);
        lower = boundary;
    }
    limit_ = lower;
}

void CapacityStackEngine::unlink(std::uint32_t node) noexcept {
    const Node& n = nodes_[node];
    Group& group = groups_[n.group];
    // A group of two or more lines is contiguous, so its new tail is the
    // line just above the old one.
    if (group.tail == node) group.tail = group.size > 1 ? n.prev : kNil;
    --group.size;
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil) nodes_[n.next].prev = n.prev;
}

void CapacityStackEngine::push_front(std::uint32_t node) noexcept {
    Node& n = nodes_[node];
    n.group = 0;
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) nodes_[head_].prev = node;
    head_ = node;
    Group& top = groups_[0];
    if (top.tail == kNil) top.tail = node;
    ++top.size;
}

std::uint32_t CapacityStackEngine::allocate(std::uint64_t line,
                                            std::uint32_t rank) {
    std::uint32_t node = spare_;
    if (node != kNil) {
        spare_ = kNil;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[node].line = line;
    nodes_[node].rank = rank;
    return node;
}

std::uint32_t CapacityStackEngine::access(std::uint64_t line) {
    // Disarmed this is one relaxed load; armed it lets chaos tests abort a
    // model run mid-pass to exercise the batch runner's stage isolation.
    fault::maybe_throw("reuse.access");
    const std::uint32_t off_stack = groups();
    bool inserted = false;
    std::uint64_t* slot = node_of_line_.find_or_insert(line, inserted);
    std::uint32_t node = kNil;
    std::uint32_t from = off_stack;  // the group the line leaves: the answer
    if (inserted || static_cast<std::uint32_t>(*slot) == kNil) {
        // A new line takes the next rank while ranks last; a ghost keeps
        // the rank of its first sighting.
        const std::uint32_t rank =
            !inserted ? static_cast<std::uint32_t>(*slot >> 32)
            : ranked_ < limit_ ? ranked_++
                               : kNil;
        node = allocate(line, rank);
        *slot = node;
    } else {
        node = static_cast<std::uint32_t>(*slot);
        if (node == head_) return 0;  // already the most recent line
        from = nodes_[node].group;
        unlink(node);
    }
    push_front(node);

    // Each group above the one the line left may now hold one line too
    // many: its tail becomes the head of the next group where it stands
    // (the list does not change), and the last group's tail leaves the
    // stack. The first group within capacity absorbs the cascade. An
    // overflowing group holds two or more lines, so the line above its
    // tail is in the group too.
    for (std::uint32_t g = 0; g < from; ++g) {
        Group& group = groups_[g];
        if (group.size <= group.capacity) break;
        const std::uint32_t demoted = group.tail;
        group.tail = nodes_[demoted].prev;
        --group.size;
        if (g + 1 < off_stack) {
            nodes_[demoted].group = g + 1;
            Group& below = groups_[g + 1];
            if (below.tail == kNil) below.tail = demoted;
            ++below.size;
        } else {
            nodes_[group.tail].next = kNil;
            // `slot` is dead from here on: erase may shift map entries.
            const Node& gone = nodes_[demoted];
            if (gone.rank == kNil)
                node_of_line_.erase(gone.line);
            else
                *node_of_line_.find(gone.line) = ghost(gone.rank);
            spare_ = demoted;
        }
    }
    return from;
}

void CapacityStackEngine::close_period(const PeriodFn& fn) const {
    // Walking down from the most recent line, the line at position p was
    // last touched before p distinct lines, and its rank r counts the
    // lines the next period touches before its first access to it. The
    // distance of that access is the size of the union: r + p minus the
    // lines above it with a smaller rank, which a Fenwick tree over the
    // ranks seen so far counts. An unranked line's distance is at least
    // L, so it stays cold, and it never ranks below a ranked one.
    std::vector<std::uint32_t> above(std::size_t{ranked_} + 1, 0);
    std::uint64_t position = 0;
    for (std::uint32_t node = head_; node != kNil;
         node = nodes_[node].next, ++position) {
        const Node& n = nodes_[node];
        if (n.rank == kNil) continue;
        std::uint64_t smaller = 0;
        for (std::uint32_t i = n.rank; i > 0; i &= i - 1) smaller += above[i];
        for (std::uint32_t i = n.rank + 1; i <= ranked_; i += i & (0u - i))
            ++above[i];
        const std::uint64_t distance = n.rank + position - smaller;
        if (distance >= limit_) continue;
        // The distance is at least the position, so its group is at or
        // below the line's own.
        std::uint32_t g = n.group;
        while (distance >= groups_[g].upper) ++g;
        fn(n.line, g);
    }
}

std::uint64_t CapacityStackEngine::resident_lines() const noexcept {
    std::uint64_t lines = 0;
    for (const Group& group : groups_) lines += group.size;
    return lines;
}

void CapacityStackEngine::access_batch(const std::uint64_t* lines,
                                       std::uint32_t* groups, std::size_t n) {
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t primed = std::min(kPrefetchAhead, n);
    for (std::size_t i = 0; i < primed; ++i) node_of_line_.prefetch(lines[i]);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            node_of_line_.prefetch(lines[i + kPrefetchAhead]);
        groups[i] = access(lines[i]);
    }
}

}  // namespace spmvcache
