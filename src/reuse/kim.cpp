#include "reuse/kim.hpp"

#include "util/checked.hpp"
#include "util/error.hpp"

namespace spmvcache {

KimEngine::KimEngine(std::uint64_t group_capacity)
    : group_capacity_(group_capacity) {
    SPMV_EXPECTS(group_capacity >= 1);
    groups_.push_back(Group{});
}

void KimEngine::unlink(std::int64_t node_index) noexcept {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    Group& group = groups_[node.group];
    if (node.prev >= 0)
        nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
    else
        group.head = node.next;
    if (node.next >= 0)
        nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
    else
        group.tail = node.prev;
    --group.size;
    node.prev = node.next = -1;
}

void KimEngine::push_front(std::uint32_t group_index,
                           std::int64_t node_index) noexcept {
    Group& group = groups_[group_index];
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    node.group = group_index;
    node.prev = -1;
    node.next = group.head;
    if (group.head >= 0)
        nodes_[static_cast<std::size_t>(group.head)].prev = node_index;
    group.head = node_index;
    if (group.tail < 0) group.tail = node_index;
    ++group.size;
}

std::int64_t KimEngine::pop_tail(std::uint32_t group_index) noexcept {
    Group& group = groups_[group_index];
    const std::int64_t tail = group.tail;
    if (tail >= 0) unlink(tail);
    return tail;
}

std::uint64_t KimEngine::access_one(std::uint64_t line) {
    std::uint64_t distance = kInfiniteDistance;
    std::int64_t node_index = -1;

    bool inserted = false;
    std::uint64_t* slot = node_of_line_.find_or_insert(line, inserted);
    if (!inserted) {
        // The map stores node indices as uint64; the list links are
        // int64 (negative = null). The narrow is provably in range —
        // only valid indices are ever stored — and the contract keeps the
        // signedness crossing honest.
        SPMV_EXPECT(checked_narrow(*slot, node_index));
        const std::uint32_t group =
            nodes_[static_cast<std::size_t>(node_index)].group;
        // Approximate stack depth: everything above this group, plus the
        // midpoint of the group itself (Kim et al.'s group-granular count).
        std::uint64_t above = 0;
        for (std::uint32_t g = 0; g < group; ++g)
            SPMV_EXPECT(checked_add(above, groups_[g].size, above));
        distance = above + groups_[group].size / 2;
        unlink(node_index);
    } else {
        SPMV_EXPECT(checked_narrow(nodes_.size(), node_index));
        nodes_.push_back(Node{line, -1, -1, 0});
        *slot = static_cast<std::uint64_t>(node_index);
        ++line_count_;
    }

    push_front(0, node_index);

    // Ripple overflow down the group chain: each full group demotes its
    // LRU entry to the next group (at most one per group per access).
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        if (groups_[g].size <= group_capacity_) break;
        if (g + 1 == groups_.size()) groups_.push_back(Group{});
        const std::int64_t demoted = pop_tail(g);
        push_front(g + 1, demoted);
    }
    return distance;
}

void KimEngine::access_batch(const std::uint64_t* lines,
                             std::uint64_t* dists, std::size_t n) {
    // Three-stage software pipeline over the dependent-load chain of a
    // hit: hash slot -> node -> the node's list neighbours. Far ahead the
    // hash slot is prefetched; closer in, the (now cheap) slot is read
    // speculatively to prefetch the node, then the node to prefetch the
    // prev/next nodes unlink() will touch. Speculative reads may observe
    // the map before intervening accesses mutate it — that only makes a
    // prefetch useless, never wrong, and the access_one results are
    // untouched.
    constexpr std::size_t kSlotAhead = 24;
    constexpr std::size_t kNodeAhead = 12;
    constexpr std::size_t kLinkAhead = 4;
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kSlotAhead < n)
            node_of_line_.prefetch(lines[i + kSlotAhead]);
        if (i + kNodeAhead < n) {
            if (const std::uint64_t* slot =
                    node_of_line_.find(lines[i + kNodeAhead]))
                prefetch_ro(&nodes_[static_cast<std::size_t>(*slot)]);
        }
        if (i + kLinkAhead < n) {
            if (const std::uint64_t* slot =
                    node_of_line_.find(lines[i + kLinkAhead])) {
                const Node& node = nodes_[static_cast<std::size_t>(*slot)];
                if (node.prev >= 0)
                    prefetch_ro(&nodes_[static_cast<std::size_t>(node.prev)]);
                if (node.next >= 0)
                    prefetch_ro(&nodes_[static_cast<std::size_t>(node.next)]);
                // That hit will ripple one demotion through every group
                // above its own; the demoted nodes are (close to) the
                // current group tails, so warm those too. The loop is
                // O(cascade length) — no dearer than the cascade itself.
                for (std::uint32_t g = 0; g < node.group; ++g) {
                    const std::int64_t tail = groups_[g].tail;
                    if (tail >= 0)
                        prefetch_ro(&nodes_[static_cast<std::size_t>(tail)]);
                }
            }
        }
        dists[i] = access_one(lines[i]);
    }
}

void KimEngine::clear() {
    nodes_.clear();
    groups_.assign(1, Group{});
    node_of_line_.clear();
    line_count_ = 0;
}

}  // namespace spmvcache
