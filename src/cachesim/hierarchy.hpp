// The simulated A64FX memory hierarchy: per-core L1D sector caches in
// front of four shared L2 sector-cache segments, with per-core L1 and L2
// stream prefetchers, consuming the MemRef traces the trace module
// produces. This is the repository's stand-in for "running on hardware":
// its counters are what the benches report as *measured*, and the reuse-
// distance model never looks inside it.
//
// L2 segments share no state: every cache, prefetcher, throttle credit,
// counter and scratch buffer belongs to one core or one segment, so
// accesses by cores of different segments may be issued concurrently, and
// feeding each segment its slice of a trace in order gives the counters of
// feeding the whole interleaved trace.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/a64fx.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/events.hpp"
#include "cachesim/prefetch.hpp"
#include "trace/memref.hpp"

namespace spmvcache {

/// Execution-driven multi-core cache simulator.
class MemoryHierarchy {
public:
    explicit MemoryHierarchy(const A64fxConfig& config);

    /// Processes one demand access by `core` (0-based) to cache line
    /// `line`, tagged with `sector`, optionally a store.
    void demand_access(std::uint32_t core, std::uint64_t line, int sector,
                       bool write);

    /// Software-prefetch hint (prfm): pulls `line` into both levels,
    /// marked prefetched, without demand-side bookkeeping or prefetcher
    /// training. No-op if already in this core's L1.
    void software_prefetch(std::uint32_t core, std::uint64_t line,
                           int sector);

    /// Convenience: routes a trace reference; the sector is derived from
    /// the reference's data object under `policy`, the core from the
    /// logical thread. Pre: ref.thread < cores.
    void access(const MemRef& ref, SectorPolicy policy) {
        const int sector = sector_of(ref.object, policy);
        if (ref.is_prefetch)
            software_prefetch(ref.thread, ref.line, sector);
        else
            demand_access(ref.thread, ref.line, sector, ref.is_write);
    }

    /// Reconfigures sector way quotas at both levels without flushing.
    void set_sector_ways(SectorWays ways);

    /// Zeroes every counter; cache contents are preserved (used between
    /// the warm-up and the measured iteration).
    void reset_counters();

    /// Zeroes the counters of L2 segment `segment` and of its cores only,
    /// so a shard replaying that segment can end its warm-up while others
    /// still run theirs. Pre: 0 <= segment < segments().
    void reset_segment_counters(std::int64_t segment);

    [[nodiscard]] const A64fxConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] std::int64_t segments() const noexcept {
        return static_cast<std::int64_t>(l2_.size());
    }

    /// Aggregate L1 counters over all cores.
    [[nodiscard]] L1Counters l1_total() const;
    /// Aggregate L2 counters over all segments.
    [[nodiscard]] L2Counters l2_total() const;
    [[nodiscard]] const L2Counters& l2_segment(std::int64_t segment) const;
    [[nodiscard]] const CoreCounters& core_counters(std::uint32_t core) const;

    /// Direct access for tests.
    [[nodiscard]] const SectorCache& l1_cache(std::uint32_t core) const;
    [[nodiscard]] const SectorCache& l2_cache(std::int64_t segment) const;

private:
    void l2_demand(std::uint32_t core, std::int64_t segment,
                   std::uint64_t line, int sector);
    void fill_l1(std::uint32_t core, std::int64_t segment, std::uint64_t line,
                 int sector, bool write, bool prefetched);
    void issue_l1_prefetches(std::uint32_t core, std::int64_t segment,
                             int sector);
    void issue_l2_prefetches(std::int64_t segment, int sector);
    /// One throttle-aware L2 prefetch fill (no-op if cached or skipped).
    void l2_prefetch_fill(std::int64_t segment, std::uint64_t target,
                          int sector);

    static constexpr std::uint64_t kMaxSkipCredits = 1024;
    void grant_l2_skip(std::int64_t segment) noexcept {
        auto& c = l2_skip_credits_[static_cast<std::size_t>(segment)];
        if (c < kMaxSkipCredits) ++c;
    }
    void grant_l1_skip(std::uint32_t core) noexcept {
        auto& c = l1_skip_credits_[core];
        if (c < kMaxSkipCredits) ++c;
    }

    A64fxConfig config_;
    std::vector<SectorCache> l1_;
    std::vector<SectorCache> l2_;
    std::vector<StreamPrefetcher> l1_prefetchers_;  // per core
    std::vector<StreamPrefetcher> l2_prefetchers_;  // per core
    std::vector<L1Counters> l1_counters_;           // per core
    std::vector<L2Counters> l2_counters_;           // per segment
    std::vector<CoreCounters> core_counters_;       // per core

    // Fast path: most trace references repeat the previous line (several
    // array elements share a 256 B line); remember the last hit per core.
    struct LastAccess {
        std::uint64_t line = ~std::uint64_t{0};
        int sector = -1;
        bool was_read_hit = false;
    };
    std::vector<LastAccess> last_;

    // Prefetch targets of the access in progress, one buffer pair per
    // segment (cache-line aligned) so segments can be fed concurrently.
    struct alignas(64) PrefetchScratch {
        std::vector<std::uint64_t> targets;
        std::vector<std::uint64_t> l2;  ///< L2 targets of L1 prefetches
    };
    std::vector<PrefetchScratch> scratch_;  // per segment

    // Feedback-directed prefetch throttling: every premature eviction of
    // a prefetched-unused line grants one "skip" credit that cancels a
    // future prefetch issue at the same level, so a prefetcher whose
    // window does not fit (e.g. a small sector shared by 12 cores, §4.3)
    // converges to the sector's capacity instead of thrashing it.
    std::vector<std::uint64_t> l2_skip_credits_;  // per segment
    std::vector<std::uint64_t> l1_skip_credits_;  // per core
};

}  // namespace spmvcache
