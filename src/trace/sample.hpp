// SHARDS fixed-rate spatial sampling filter (Waldspurger et al., FAST'15).
//
// A reference to line L is kept iff hash(L) < R·2⁶⁴ for a fixed sampling
// rate R in (0, 1]. Because the filter is *spatial* (per line, not per
// reference), every access to a kept line survives, so the sampled trace
// is the full trace restricted to a uniformly random R-subset of the
// address space. Two scaling identities then recover full-trace
// quantities in expectation:
//
//   * distances — a reuse interval covering D distinct lines of the full
//     trace covers ≈ R·D kept lines, so the estimate is d_sampled / R;
//   * counts — each kept reference stands for 1/R references of the full
//     trace, so histogram/counter totals are scaled by 1/R.
//
// The hash is a splitmix64-style finalizer: line numbers arrive highly
// structured (sequential within rows), and the mixer's avalanche makes
// the kept subset behave like a uniform random sample of the lines.
//
// The filter lives in trace/ (below reuse/ in the library order) because
// packed-trace derivation applies it at packing time — skipped references
// never leave the buffer — while reuse/sampled.hpp applies the *same*
// filter inside the SampledEngine adapter, so both paths agree exactly on
// which lines are kept. The model never scales a distance: its miss
// counters (reuse/histogram.hpp) move each priced capacity to
// sampled_threshold(capacity) instead.
#pragma once

#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace spmvcache {

/// splitmix64 finalizer over the line number — the SHARDS spatial hash.
[[nodiscard]] inline std::uint64_t sample_hash(std::uint64_t line) noexcept {
    std::uint64_t h = line + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
}

/// True when `rate` is a SHARDS rate the filter can represent: in
/// [2^-53, 1]. The keep threshold quantizes R at 2^-53 before shifting it
/// up to R·2⁶⁴, so a smaller R would keep no line at all and every
/// "estimate" would be zero. NaN is rejected too. Entry points that take
/// a rate from a user check it here and answer ValidationError.
[[nodiscard]] constexpr bool valid_sample_rate(double rate) noexcept {
    return rate >= 0x1p-53 && rate <= 1.0;
}

/// The fixed-rate filter plus the two scaling identities. Default
/// construction (or rate 1.0) is the exact filter: keep() is always true
/// and both scales are the identity, so exact-mode callers pay nothing.
class SampleFilter {
public:
    SampleFilter() = default;

    /// Pre: valid_sample_rate(rate).
    explicit SampleFilter(double rate) : rate_(rate) {
        SPMV_EXPECTS(valid_sample_rate(rate));
        if (rate < 1.0) {
            inverse_ = 1.0 / rate;
            // R·2⁶⁴ without overflowing the double→uint64 cast: quantise
            // R at 2⁻⁵³ (exact for any double < 1) and shift up.
            threshold_ = static_cast<std::uint64_t>(rate * 0x1p53) << 11;
        }
    }

    /// True when the filter passes everything (R = 1).
    [[nodiscard]] bool exact() const noexcept { return rate_ >= 1.0; }
    [[nodiscard]] double rate() const noexcept { return rate_; }
    [[nodiscard]] double inverse_rate() const noexcept { return inverse_; }

    /// True when references to `line` are processed.
    [[nodiscard]] bool keep(std::uint64_t line) const noexcept {
        return exact() || sample_hash(line) < threshold_;
    }

    /// d_sampled → d_sampled / R (the unbiased full-trace estimate). An
    /// all-ones distance (reuse/engine.hpp's kInfiniteDistance — a cold
    /// miss) passes through unchanged.
    [[nodiscard]] std::uint64_t scale_distance(
        std::uint64_t distance) const noexcept {
        if (exact() || distance == ~std::uint64_t{0}) return distance;
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(distance) * inverse_));
    }

    /// The smallest sampled distance T with scale_distance(T) >= capacity
    /// (`capacity` itself when the filter is exact). scale_distance is
    /// monotone, so a sampled distance d scales to at least `capacity`
    /// exactly when d >= T: an engine that preserves the comparisons
    /// d >= T preserves the scaled ones against `capacity`.
    [[nodiscard]] std::uint64_t sampled_threshold(
        std::uint64_t capacity) const noexcept {
        if (exact()) return capacity;
        // R·capacity lands within a step or two of T; walk to it.
        auto t = static_cast<std::uint64_t>(static_cast<double>(capacity) *
                                            rate_);
        while (t > 0 && scale_distance(t - 1) >= capacity) --t;
        while (scale_distance(t) < capacity) ++t;
        return t;
    }

    /// count → count / R (each kept reference stands for 1/R).
    [[nodiscard]] double scale_count(double count) const noexcept {
        return count * inverse_;
    }

private:
    double rate_ = 1.0;
    double inverse_ = 1.0;
    std::uint64_t threshold_ = ~std::uint64_t{0};
};

}  // namespace spmvcache
