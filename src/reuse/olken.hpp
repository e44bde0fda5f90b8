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

namespace detail {
struct InterleaveCalibration;
}

/// Exact full-distance engine: reuse profiles, SampledEngine callers, the
/// benches, and the reference the capacity stack is tested against.
class OlkenEngine final : public ReuseEngine {
public:
    /// `expected_lines` presizes the hash map (purely a performance hint).
    explicit OlkenEngine(std::size_t expected_lines = 1024);

    std::uint64_t access(std::uint64_t line) override { return access_one(line); }
    void clear() override;
    [[nodiscard]] std::uint64_t distinct_lines() const override {
        return last_access_.size();
    }

    /// Non-virtual per-access path (one find_or_insert probe per access);
    /// `access` forwards here.
    std::uint64_t access_one(std::uint64_t line);

    /// Processes `n` accesses, writing each reuse distance to `dists`.
    /// Identical results to n access() calls in order. Large batches run
    /// the AMAC-style interleaved scheduler (interleave_width() probe
    /// streams advanced round-robin: map-slot prefetch → slot read plus
    /// Fenwick-path prefetch → in-order retire); short batches, or any
    /// batch while the `reuse.interleave` fault is armed, degrade to the
    /// simple lookahead loop with the same results.
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n);

    /// Removes `line`'s history (SHARDS eviction when the sampling rate
    /// is lowered); returns whether the line was tracked. Subsequent
    /// distances behave as if the line had never been accessed.
    bool evict(std::uint64_t line);

    /// Calls fn(line) for every tracked line (arbitrary order).
    template <class Fn>
    void for_each_line(Fn&& fn) const {
        last_access_.for_each(
            [&](std::uint64_t line, std::uint64_t) { fn(line); });
    }

    /// Calibrated in-flight probe-stream count (once per process; timed
    /// candidates, like KernelEngine's prefetch distance).
    [[nodiscard]] static std::size_t interleave_width();

    /// Batch mode chosen by best-of calibration: "interleaved" when some
    /// probe-stream width beat the simple lookahead pipeline on this
    /// machine, "simple" otherwise — calibration picks a mode, never a
    /// regression.
    [[nodiscard]] static const char* batch_mode();

private:
    void access_batch_simple(const std::uint64_t* lines, std::uint64_t* dists,
                             std::size_t n);
    void access_batch_interleaved(const std::uint64_t* lines,
                                  std::uint64_t* dists, std::size_t n,
                                  std::size_t width);
    /// Once-per-process best-of calibration over both batch pipelines.
    [[nodiscard]] static const detail::InterleaveCalibration& calibration();
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
