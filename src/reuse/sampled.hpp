// SampledEngine<E>: SHARDS fixed-rate spatial sampling over any concrete
// reuse-distance engine (trace/sample.hpp holds the filter and scaling
// math; this adapter applies them around an engine's access paths).
//
// access_one / access_batch return full-trace distance *estimates* for
// kept references (d_sampled / R, kInfiniteDistance preserved) and
// kSkippedDistance for filtered ones; batches compact the kept lines
// first so the wrapped engine's batch loop runs at full density and the
// filtered majority costs one hash + compare each. With an exact filter
// (R = 1) every call forwards untouched — results are bit-identical to
// the bare engine. The rate is fixed for the adapter's lifetime.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "reuse/engine.hpp"
#include "trace/sample.hpp"

namespace spmvcache {

/// Distance reported for a reference the sampling filter skipped; callers
/// must not record it. Distinct from kInfiniteDistance (a sampled cold
/// miss), which *is* recorded.
inline constexpr std::uint64_t kSkippedDistance = ~std::uint64_t{0} - 1;

/// Adapter running any concrete engine on the sampled subtrace.
template <class E>
class SampledEngine final : public ReuseEngine {
public:
    template <class... Args>
    explicit SampledEngine(SampleFilter filter, Args&&... args)
        : filter_(filter), engine_(std::forward<Args>(args)...) {}

    std::uint64_t access(std::uint64_t line) override {
        return access_one(line);
    }

    void clear() override {
        engine_.clear();
        sampled_refs_ = 0;
        skipped_refs_ = 0;
    }

    /// Scaled estimate of the full-trace distinct-line count.
    [[nodiscard]] std::uint64_t distinct_lines() const override {
        return static_cast<std::uint64_t>(std::llround(
            filter_.scale_count(static_cast<double>(engine_.distinct_lines()))));
    }

    std::uint64_t access_one(std::uint64_t line) {
        if (!filter_.keep(line)) {
            ++skipped_refs_;
            return kSkippedDistance;
        }
        ++sampled_refs_;
        return filter_.scale_distance(engine_.access_one(line));
    }

    /// Batch form: filter → compact → one dense batch through the wrapped
    /// engine → scatter scaled results (kSkippedDistance in the gaps).
    void access_batch(const std::uint64_t* lines, std::uint64_t* dists,
                      std::size_t n) {
        if (filter_.exact()) {
            engine_.access_batch(lines, dists, n);
            sampled_refs_ += n;
            return;
        }
        scratch_lines_.clear();
        scratch_index_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (filter_.keep(lines[i])) {
                scratch_lines_.push_back(lines[i]);
                scratch_index_.push_back(i);
            } else {
                dists[i] = kSkippedDistance;
            }
        }
        const std::size_t kept = scratch_lines_.size();
        skipped_refs_ += n - kept;
        sampled_refs_ += kept;
        scratch_dists_.resize(kept);
        engine_.access_batch(scratch_lines_.data(), scratch_dists_.data(),
                             kept);
        for (std::size_t k = 0; k < kept; ++k)
            dists[scratch_index_[k]] = filter_.scale_distance(scratch_dists_[k]);
    }

    [[nodiscard]] const SampleFilter& filter() const noexcept {
        return filter_;
    }
    /// Kept references processed since clear().
    [[nodiscard]] std::uint64_t sampled_refs() const noexcept {
        return sampled_refs_;
    }
    /// References the filter rejected since clear().
    [[nodiscard]] std::uint64_t skipped_refs() const noexcept {
        return skipped_refs_;
    }
    [[nodiscard]] E& engine() noexcept { return engine_; }
    [[nodiscard]] const E& engine() const noexcept { return engine_; }

private:
    SampleFilter filter_;
    E engine_;
    std::uint64_t sampled_refs_ = 0;
    std::uint64_t skipped_refs_ = 0;
    std::vector<std::uint64_t> scratch_lines_;
    std::vector<std::uint64_t> scratch_dists_;
    std::vector<std::size_t> scratch_index_;
};

}  // namespace spmvcache
