// Stream prefetcher modelling the A64FX hardware prefetcher.
//
// The A64FX detects ascending/descending sequential line streams and runs
// ahead of the demand stream by a *prefetch distance* that software can
// shrink through the "hardware prefetch assistance" registers of the
// Fujitsu HPC extension. That distance is the paper's lever in §4.3: with
// an aggressive distance and a small sector, prefetched lines are evicted
// before first use; after reducing the distance, a 2-way sector behaves
// like a 4-way one. The bench_ablation prefetch sweep reproduces exactly
// that experiment.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace spmvcache {

/// Tuning of one prefetcher instance.
struct PrefetchConfig {
    bool enabled = true;
    /// How far ahead of the newest demand line a stream prefetches, in
    /// cache lines (the "prefetch distance").
    std::uint32_t distance = 16;
    /// Concurrent streams tracked (LRU-replaced).
    std::uint32_t streams = 16;
    /// Prefetch issues per triggering access: rate-limits the ramp toward
    /// the full distance, so slow streams never run the whole distance
    /// ahead of their consumption.
    std::uint32_t max_issue_per_access = 4;
    /// An access within this many lines of a stream's head matches the
    /// stream (accesses behind the head only refresh it). Observations of
    /// one physical stream arrive from several sources (demand misses,
    /// L1 prefetch requests) at different offsets; without a window each
    /// source would spawn its own duplicate stream.
    std::uint32_t match_window = 32;
};

/// Detects +-1 line streams in a demand stream and emits prefetch targets.
class StreamPrefetcher {
public:
    explicit StreamPrefetcher(const PrefetchConfig& config);

    /// Observes one demand access and appends the lines to prefetch to
    /// `targets` (not cleared). A stream is allocated when an access is
    /// adjacent to a recently observed one (allocation filter), so
    /// isolated irregular accesses never displace live streams.
    void observe(std::uint64_t line, std::vector<std::uint64_t>& targets);

    [[nodiscard]] const PrefetchConfig& config() const noexcept {
        return config_;
    }
    /// Changes the prefetch distance (hardware prefetch assistance).
    void set_distance(std::uint32_t distance) noexcept {
        config_.distance = distance;
    }

private:
    struct Stream {
        std::uint64_t last_line = 0;
        std::uint64_t frontier = 0;  ///< highest (dir=+1) line prefetched
        std::int8_t direction = 0;   ///< +1 or -1 once valid
        bool valid = false;
        std::uint64_t stamp = 0;
    };

    void issue(Stream& s, std::vector<std::uint64_t>& targets);

    PrefetchConfig config_;
    std::vector<Stream> streams_;
    std::array<std::uint64_t, 4> recent_{};  ///< allocation-filter ring
    std::size_t recent_cursor_ = 0;
    std::uint64_t clock_ = 0;
};

}  // namespace spmvcache
