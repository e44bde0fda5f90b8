// Shared option and result types for the cache-miss model (methods A & B).
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/a64fx.hpp"
#include "sparse/index_width.hpp"
#include "sparse/partition.hpp"
#include "trace/layout.hpp"
#include "trace/memref.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Sentinel for ModelOptions::trace_buffer_bytes: resolve the packed-trace
/// budget from physical RAM at run time.
inline constexpr std::uint64_t kTraceBufferAuto = ~std::uint64_t{0};

/// Options for a model run.
struct ModelOptions {
    /// Machine geometry consulted for line size, cache capacities and the
    /// thread -> L2 segment mapping; the model never simulates it.
    A64fxConfig machine{};
    std::int64_t threads = 1;
    /// Data-to-sector assignment analysed for the partitioned entries.
    SectorPolicy policy = SectorPolicy::IsolateMatrix;
    /// Sector-1 L2 way counts to price (0 = no partitioning is always
    /// included in the result in addition to these).
    std::vector<std::uint32_t> l2_way_options = {2, 3, 4, 5, 6, 7};
    /// Also predict L1 misses (unpartitioned L1 model, §4.5.4).
    bool predict_l1 = true;
    PartitionPolicy partition = PartitionPolicy::BalancedRows;
    /// Interleave granularity in nonzeros (see TraceConfig::quantum).
    static constexpr std::int64_t quantum = 1;
    /// Group capacity of a KimEngine. The model never reads it;
    /// perfbench's reuse-layer probe builds its KimEngine from it.
    static constexpr std::uint64_t kim_group_capacity = 512;
    /// Host worker threads for the model's stack passes. The model is
    /// sharded by L2 segment (each shard re-derives only its segment's
    /// slice of the interleaved trace), so up to one worker per active
    /// segment is useful. 0 = one worker per hardware thread; 1 = serial.
    /// Predictions are bit-identical for every value — see DESIGN.md
    /// "Sharded host-parallel model execution".
    std::int64_t jobs = 0;
    /// Packed-trace replay budget in bytes, shared by the shards that can
    /// run concurrently: each shard replays its segment trace (8 bytes per
    /// kept reference) in chunks of at most budget / min(jobs, segments).
    /// A segment that fits one chunk is derived once and replayed for both
    /// passes; a larger one is derived again, chunk by chunk, for the
    /// counted pass — so arbitrarily large matrices still run. The
    /// smallest chunk is one 1024-reference replay batch, which is what 0
    /// (or any smaller budget) means. kTraceBufferAuto (default) resolves
    /// to 1/8 of physical RAM clamped to [64 MiB, 8 GiB]. Predictions are
    /// bit-identical for every budget (golden-tested); the knob trades
    /// memory for trace-derivation time only. CLI: --trace-buffer.
    std::uint64_t trace_buffer_bytes = kTraceBufferAuto;
    /// SHARDS spatial-sampling rate R in (0, 1]. 1 (default) is the exact
    /// model — bit-identical to every pre-sampling prediction. R < 1
    /// processes only references whose line hashes below R·2⁶⁴
    /// (trace/sample.hpp) and scales distances and miss totals by 1/R, an
    /// unbiased estimate typically within a few percent at R = 0.01 while
    /// the stack passes do ~R times the work. CLI: --approx[=R]. An armed
    /// `reuse.sample` fault degrades the run to exact computation (never
    /// to wrong numbers); ModelResult::sampled reports what actually ran.
    double sample_rate = 1.0;
    /// Per-run wall-clock budget in seconds; <= 0 disables it. Enforced by
    /// core/model_runner.hpp's run_model (the CLI --timeout flag and every
    /// serve request share that one mechanism); the raw run_method_a/b
    /// entry points ignore it. On expiry the run is abandoned on a
    /// detached thread and TimeoutError returned — see core/deadline.hpp.
    double timeout_seconds = 0.0;
    /// Account the index arrays at the paper's sizes (colidx 4 B, rowptr
    /// 8 B, the constants inside s1/s2 in §3.2.2) at either storage
    /// width. Off (default) follows the physical width of the matrix being
    /// modelled: 4/4 at W32, 8/8 at W64. Experiments and the
    /// width-differential tests pin it, so predictions agree bit for bit
    /// across widths.
    bool paper_accounting = false;

    /// The colidx element size to account for a matrix stored at `width`.
    [[nodiscard]] std::uint32_t colidx_bytes_for(IndexWidth width) const noexcept {
        return paper_accounting ? kPaperColidxBytes : colidx_width_bytes(width);
    }
    /// The rowptr element size to account for a matrix stored at `width`.
    [[nodiscard]] std::uint32_t rowptr_bytes_for(IndexWidth width) const noexcept {
        return paper_accounting ? kPaperRowptrBytes : rowptr_width_bytes(width);
    }
};

/// The options `tune` prices a matrix at, in the CLI and in `serve`: the
/// defaults, sector-1 way counts 1..8, 10, 12 and 14, and no L1 model.
[[nodiscard]] inline ModelOptions tune_options() {
    ModelOptions options;
    options.l2_way_options = {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14};
    options.predict_l1 = false;
    return options;
}

/// Predicted misses for one sector-cache configuration.
struct ConfigPrediction {
    /// Sector-1 L2 ways; 0 means the sector cache is disabled.
    std::uint32_t l2_sector_ways = 0;
    /// Predicted L2 misses (memory fills) for one SpMV iteration after
    /// warm-up, summed over all active L2 segments.
    double l2_misses = 0.0;
    /// Contribution of x-vector references to l2_misses.
    double l2_x_misses = 0.0;
};

/// Execution record of one host-side model shard (= one L2 segment).
struct ShardStats {
    std::int64_t segment = 0;      ///< L2 segment index
    std::int64_t threads = 0;      ///< simulated threads mapped to it
    /// Demand references replayed per counted SpMV iteration (the shard's
    /// slice of the derived trace; shards sum to spmv_trace_length).
    std::uint64_t references = 0;
    double seconds = 0.0;          ///< wall-clock of this shard's stack pass
    /// True when the segment was derived once (it fit one replay chunk);
    /// false when the counted pass derived it again, chunk by chunk
    /// (budget exceeded, --trace-buffer 0, armed `trace.pack` fault, or a
    /// failed chunk allocation).
    bool packed_replay = false;
    /// References that survived the sampling filter and reached the
    /// engines (== references when the run was exact).
    std::uint64_t sampled_refs = 0;
};

/// Result of one model run (either method).
struct ModelResult {
    std::vector<ConfigPrediction> configs;  ///< entry 0 is "no partitioning"
    /// Predicted L1 misses per iteration, unpartitioned L1 (0 if disabled).
    double l1_misses = 0.0;
    double l1_x_misses = 0.0;
    /// Fraction of predicted unpartitioned L2 miss *traffic* due to x
    /// (the §4.5.5 hard-case criterion: >= 0.5).
    double x_traffic_fraction = 0.0;
    /// Wall-clock seconds spent computing the model.
    double seconds = 0.0;
    /// Per-shard timing and reference counts, one entry per L2 segment.
    std::vector<ShardStats> shards;
    /// Host workers the run actually used (after resolving jobs = 0).
    std::int64_t jobs = 1;
    /// True when predictions are SHARDS estimates (sample_rate < 1 *and*
    /// sampling was not degraded to exact by an armed `reuse.sample`
    /// fault). Reporters surface this so approximate numbers are never
    /// silently presented as exact.
    bool sampled = false;
    /// The rate the run actually used (1.0 when exact or degraded).
    double sample_rate = 1.0;
    /// Demand references that reached the engines, summed over shards
    /// (== total references when exact).
    std::uint64_t sampled_refs = 0;

    /// Typed lookup: the prediction for `l2_sector_ways` (0 = disabled),
    /// or ValidationError when that configuration was not priced. The
    /// non-throwing form batch isolation can classify.
    [[nodiscard]] Result<ConfigPrediction> find(
        std::uint32_t l2_sector_ways) const;

    /// Reference-returning lookup for callers that know the configuration
    /// was priced. Throws StatusError (code ValidationError) otherwise, so
    /// stage-boundary catch blocks classify it as an input error rather
    /// than a crash.
    [[nodiscard]] const ConfigPrediction& at(std::uint32_t l2_sector_ways) const;

    /// The configuration with the fewest predicted L2 misses; the earliest
    /// on a tie, so entry 0 (sector cache off) wins when nothing helps.
    /// Pre: configs is not empty.
    [[nodiscard]] const ConfigPrediction& best() const;

private:
    /// Shared lookup loop behind find/at (nullptr when not priced).
    [[nodiscard]] const ConfigPrediction* find_ptr(
        std::uint32_t l2_sector_ways) const noexcept;
};

}  // namespace spmvcache
