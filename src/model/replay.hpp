// The sharded, chunked trace replay shared by methods (A) and (B).
//
// The model is sharded by L2 segment: every per-segment stack engine (and
// every per-core L1 engine, since cores do not move between segments)
// consumes a disjoint, order-preserved slice of the interleaved trace
// (generate_spmv_trace_segment), so shards are fully independent and can
// run concurrently without changing any prediction.
//
// Each shard sends its slice through its engines twice: a warm-up pass,
// then a counted pass. replay_segment() is the one loop that does it. It
// derives the segment's demand references, drops those the run's SHARDS
// filter rejects, packs the rest (trace/packed_trace.hpp) into a chunk no
// larger than the shard's share of ModelOptions::trace_buffer_bytes, and
// hands every full chunk to the method's consumer. A segment that fits one
// chunk is derived once and both passes replay that buffer; a larger one
// is derived again, chunk by chunk, for the counted pass. Chunking only
// splits each engine's own access subsequence, so predictions are
// bit-identical for every budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "model/options.hpp"
#include "sparse/any_csr.hpp"
#include "trace/layout.hpp"
#include "trace/sample.hpp"
#include "trace/spmv_trace.hpp"

namespace spmvcache::detail {

/// References the engines consume per access_batch call, and the smallest
/// chunk: large enough to amortize the gather/scatter bookkeeping and keep
/// the engines' prefetch pipelines full, small enough that the scratch
/// arrays stay L2-resident.
inline constexpr std::size_t kReplayBatch = 1024;

/// Resolves ModelOptions::trace_buffer_bytes: kTraceBufferAuto becomes
/// 1/8 of physical RAM clamped to [64 MiB, 8 GiB] (256 MiB when the host
/// cannot report its memory); any other value passes through.
[[nodiscard]] std::uint64_t resolve_trace_buffer_bytes(
    std::uint64_t requested) noexcept;

/// Everything the shards of one run share, resolved once at entry.
struct ReplayPlan {
    /// Checks the options' preconditions. Throws StatusError
    /// (ValidationError) when the run's references cannot be packed: more
    /// than 2048 simulated threads, or a line number of 2^48 or more.
    ReplayPlan(const AnyCsrView& matrix, const ModelOptions& options);

    const ModelOptions& options;  ///< must outlive the plan
    AnyCsrView m;
    /// Index arrays spaced at the *accounted* element sizes.
    SpmvLayout layout;
    TraceConfig trace_cfg;
    std::int64_t segments;
    /// Host workers the run uses: ModelOptions::jobs (0 = one per hardware
    /// thread), at most one per segment.
    std::int64_t effective_jobs;
    std::vector<std::uint64_t> segment_lengths;  ///< demand refs per segment
    /// Per-shard chunk capacity in words: the budget's share, at least
    /// one replay batch.
    std::uint64_t chunk_words;
    /// The run's SHARDS filter (exact unless sampling is on).
    SampleFilter filter;

    [[nodiscard]] std::int64_t first_thread(std::int64_t segment) const;
    [[nodiscard]] std::int64_t threads_in(std::int64_t segment) const;

    /// Runs fn(segment) for every segment, concurrently on effective_jobs
    /// pool workers (serial when that is 1 — no pool, no threads).
    /// Exceptions from fn propagate to the caller in both modes.
    void for_each_shard(const std::function<void(std::int64_t)>& fn) const;
};

/// Receives one chunk of packed demand words (trace order) and whether it
/// belongs to the counted pass.
using ChunkConsumer =
    std::function<void(std::span<const std::uint64_t> words, bool counting)>;

/// Runs segment `segment`'s warm-up and counted passes through `consume`
/// and returns the shard's record. The smallest chunk — one replay batch —
/// serves a budget below one batch (including 0), an armed `trace.pack`
/// fault and a failed chunk allocation: slower, never a different number.
[[nodiscard]] ShardStats replay_segment(const ReplayPlan& plan,
                                        std::int64_t segment,
                                        const ChunkConsumer& consume);

}  // namespace spmvcache::detail
