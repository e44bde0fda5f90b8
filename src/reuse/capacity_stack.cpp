#include "reuse/capacity_stack.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache {

CapacityStackEngine::CapacityStackEngine(
    std::span<const std::uint64_t> capacities, const SampleFilter& filter) {
    SPMV_EXPECTS(!capacities.empty());
    std::vector<std::uint64_t> boundaries;
    for (const std::uint64_t capacity : capacities) {
        SPMV_EXPECTS(capacity >= 1);
        boundaries.push_back(filter.sampled_threshold(capacity));
    }
    std::sort(boundaries.begin(), boundaries.end());
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    // Node indices are 32-bit and the pool never outgrows the largest
    // boundary by more than the one line an eviction is about to free.
    SPMV_EXPECTS(boundaries.back() < kNil);
    std::uint64_t lower = 0;
    for (const std::uint64_t boundary : boundaries) {
        Group group;
        group.capacity = boundary - lower;
        group.lower = lower;
        groups_.push_back(group);
        lower = boundary;
    }
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

std::uint32_t CapacityStackEngine::allocate(std::uint64_t line) {
    std::uint32_t node = spare_;
    if (node != kNil) {
        spare_ = kNil;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[node].line = line;
    return node;
}

std::uint64_t CapacityStackEngine::access_one(std::uint64_t line) {
    // Disarmed this is one relaxed load; armed it lets chaos tests abort a
    // model run mid-pass to exercise the batch runner's stage isolation.
    fault::maybe_throw("reuse.access");
    const auto groups = static_cast<std::uint32_t>(groups_.size());
    bool inserted = false;
    std::uint64_t* slot = node_of_line_.find_or_insert(line, inserted);
    std::uint32_t node = kNil;
    std::uint32_t from = groups;  // the group the line leaves; none if new
    std::uint64_t distance = kInfiniteDistance;
    if (inserted) {
        node = allocate(line);
        *slot = node;
    } else {
        node = static_cast<std::uint32_t>(*slot);
        if (node == head_) return 0;  // already the most recent line
        from = nodes_[node].group;
        distance = groups_[from].lower;
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
        if (g + 1 < groups) {
            nodes_[demoted].group = g + 1;
            Group& below = groups_[g + 1];
            if (below.tail == kNil) below.tail = demoted;
            ++below.size;
        } else {
            nodes_[group.tail].next = kNil;
            // `slot` is dead from here on: erase may shift map entries.
            node_of_line_.erase(nodes_[demoted].line);
            spare_ = demoted;
        }
    }
    return distance;
}

void CapacityStackEngine::access_batch(const std::uint64_t* lines,
                                       std::uint64_t* dists, std::size_t n) {
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t primed = std::min(kPrefetchAhead, n);
    for (std::size_t i = 0; i < primed; ++i) node_of_line_.prefetch(lines[i]);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            node_of_line_.prefetch(lines[i + kPrefetchAhead]);
        dists[i] = access_one(lines[i]);
    }
}

}  // namespace spmvcache
