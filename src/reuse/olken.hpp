// Exact reuse distances in O(log n) per access (Olken's method).
//
// A Fenwick tree over access timestamps counts, for each reference, how
// many lines were touched more recently than the line's previous access.
// Timestamps grow monotonically; when the slot array fills up, the alive
// timestamps are compacted and renumbered (amortised O(1) per access).
#pragma once

#include <cstdint>
#include <vector>

#include "reuse/engine.hpp"
#include "reuse/flat_map.hpp"

namespace spmvcache {

/// Exact full-distance engine: reuse profiles, SampledEngine callers, the
/// benches, and the reference the capacity stack is tested against.
class OlkenEngine {
public:
    /// `expected_lines` presizes the hash map (purely a performance hint).
    explicit OlkenEngine(std::size_t expected_lines = 1024);

    /// Processes one access and returns its reuse distance (one
    /// find_or_insert probe).
    std::uint64_t access(std::uint64_t line);
    /// Forgets all history.
    void clear();
    /// Number of distinct lines seen since clear().
    [[nodiscard]] std::uint64_t distinct_lines() const {
        return last_access_.size();
    }

    /// Processes `n` accesses, writing each reuse distance to `dists`.
    /// Identical results to n access() calls in order; a lookahead loop
    /// prefetches the hash slots of upcoming accesses.
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n);

    /// Probe streams and batch mode of access_batch: one lookahead loop.
    /// Constants, kept because perfbench's run record reads them.
    [[nodiscard]] static constexpr std::size_t interleave_width() { return 1; }
    [[nodiscard]] static constexpr const char* batch_mode() { return "simple"; }

private:
    void fenwick_add(std::size_t index, int delta) noexcept;
    [[nodiscard]] std::uint64_t fenwick_prefix(std::size_t index) const noexcept;
    void compact();

    FlatMap64 last_access_;        ///< line -> timestamp of latest access
    std::vector<std::int32_t> tree_;  ///< Fenwick tree over timestamps
    std::size_t slots_ = 0;        ///< capacity of the timestamp space
    std::size_t now_ = 0;          ///< next timestamp to assign
    std::uint64_t alive_ = 0;      ///< number of distinct lines
};

}  // namespace spmvcache
