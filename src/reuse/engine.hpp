// Reuse-distance engine interface (§2.2 of the paper).
//
// Given a stream of cache-line numbers, an engine returns for every access
// the number of *distinct* lines referenced since the previous access to
// the same line (kInfinite for first-ever accesses). With Eq. (1) of the
// paper, an access misses in a fully associative LRU cache of n lines iff
// its reuse distance is >= n.
//
// Three implementations with one contract:
//  * NaiveStackEngine — O(distance) list walk; the executable definition,
//    used to cross-check the others in tests.
//  * OlkenEngine — exact, O(log n) per access via a Fenwick tree over
//    access times; the reference for full distances (reuse profiles,
//    benches, differential tests).
//  * KimEngine — the grouped-stack scheme of Kim et al. [SIGMETRICS'91]
//    that the paper uses, with fixed-size groups: approximate distances
//    at group granularity with per-access cost independent of the
//    locality of the trace (tests and benches).
//
// Each has one batch path, access_batch: a lookahead loop that prefetches
// the state of upcoming accesses, with results identical to serial access.
//
// The model runs none of them: methods (A) and (B) price through
// CapacityStackEngine (reuse/capacity_stack.hpp), which puts Kim et al.'s
// group boundaries at the capacities being priced. It reports only which
// of those capacities a distance reaches, so it does not implement this
// full-distance contract and is not a ReuseEngine.
#pragma once

#include <cstdint>

namespace spmvcache {

/// Reuse distance reported for a line's first-ever access.
inline constexpr std::uint64_t kInfiniteDistance = ~std::uint64_t{0};

/// Read prefetch hint; a no-op (and harmless on any address) where the
/// builtin is unavailable. The engines' access_batch lookahead loops use
/// it to overlap the dependent-load misses of upcoming accesses.
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
}

/// Abstract engine; concrete classes also expose the same functions
/// non-virtually for hot paths.
class ReuseEngine {
public:
    virtual ~ReuseEngine() = default;

    /// Processes one access and returns its reuse distance.
    virtual std::uint64_t access(std::uint64_t line) = 0;

    /// Forgets all history.
    virtual void clear() = 0;

    /// Number of distinct lines seen since clear().
    [[nodiscard]] virtual std::uint64_t distinct_lines() const = 0;
};

}  // namespace spmvcache
