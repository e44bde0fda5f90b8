#include "reuse/olken.hpp"

#include <algorithm>
#include <utility>

#include "util/fault.hpp"

namespace spmvcache {

namespace {
constexpr std::size_t kInitialSlots = 1 << 16;
}

OlkenEngine::OlkenEngine(std::size_t expected_lines)
    : last_access_(expected_lines) {
    slots_ = kInitialSlots;
    while (slots_ < expected_lines * 2) slots_ *= 2;
    tree_.assign(slots_ + 1, 0);
}

void OlkenEngine::fenwick_add(std::size_t index, int delta) noexcept {
    // 1-based Fenwick tree.
    for (std::size_t i = index + 1; i <= slots_; i += i & (~i + 1))
        tree_[i] += delta;
}

std::uint64_t OlkenEngine::fenwick_prefix(std::size_t index) const noexcept {
    // Sum of marks with timestamp <= index.
    std::uint64_t sum = 0;
    for (std::size_t i = index + 1; i > 0; i -= i & (~i + 1))
        sum += static_cast<std::uint64_t>(tree_[i]);
    return sum;
}

std::uint64_t OlkenEngine::access_one(std::uint64_t line) {
    // Disarmed this is one relaxed load; armed it lets chaos tests abort a
    // model run mid-pass to exercise the batch runner's stage isolation.
    fault::maybe_throw("reuse.access");
    if (now_ == slots_) compact();

    std::uint64_t distance = kInfiniteDistance;
    bool inserted = false;
    std::uint64_t* prev = last_access_.find_or_insert(line, inserted);
    if (!inserted) {
        // Lines accessed after *prev are exactly the distinct lines between
        // the two accesses; the line itself is counted by prefix, so
        // alive - prefix(prev) excludes it.
        distance = alive_ - fenwick_prefix(static_cast<std::size_t>(*prev));
        fenwick_add(static_cast<std::size_t>(*prev), -1);
    } else {
        ++alive_;
    }
    *prev = static_cast<std::uint64_t>(now_);
    fenwick_add(now_, +1);
    ++now_;
    return distance;
}

void OlkenEngine::access_batch(const std::uint64_t* lines,
                               std::uint64_t* dists, std::size_t n) {
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t primed = std::min(kPrefetchAhead, n);
    for (std::size_t i = 0; i < primed; ++i) last_access_.prefetch(lines[i]);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            last_access_.prefetch(lines[i + kPrefetchAhead]);
        dists[i] = access_one(lines[i]);
    }
}

void OlkenEngine::compact() {
    // Renumber the alive timestamps 0..alive-1 preserving order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> alive_entries;
    alive_entries.reserve(static_cast<std::size_t>(alive_));
    last_access_.for_each([&](std::uint64_t line, std::uint64_t time) {
        alive_entries.emplace_back(time, line);
    });
    std::sort(alive_entries.begin(), alive_entries.end());

    // Grow if more than half the slot space is alive.
    while (alive_entries.size() * 2 > slots_) slots_ *= 2;
    tree_.assign(slots_ + 1, 0);
    now_ = 0;
    for (const auto& [time, line] : alive_entries) {
        last_access_.put(line, static_cast<std::uint64_t>(now_));
        fenwick_add(now_, +1);
        ++now_;
    }
}

void OlkenEngine::clear() {
    last_access_.clear();
    slots_ = kInitialSlots;
    tree_.assign(slots_ + 1, 0);
    now_ = 0;
    alive_ = 0;
}

}  // namespace spmvcache
