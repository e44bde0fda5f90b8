// The sharded, streamed trace replay shared by methods (A) and (B) and the
// simulator sweep (core/experiment.hpp).
//
// Runs are sharded by L2 segment: every per-segment stack engine or
// simulated L2 segment (and every per-core L1, since cores do not move
// between segments) consumes a disjoint, order-preserved slice of the
// interleaved trace (generate_spmv_trace_segment), so shards are fully
// independent and can run concurrently without changing any number.
//
// replay_segment() is the one loop that plays a segment: it derives the
// segment's references, drops those the run's SHARDS filter rejects,
// packs the rest (trace/packed_trace.hpp) and hands them to the consumer
// in chunks of kReplayBatch words, so no shard holds more than one chunk
// of its trace. One call plays one SpMV iteration. The model calls it
// once per shard and then closes each engine's period
// (CapacityStackEngine::close_period), which yields the counts of a
// counted iteration after a warm-up one; the simulator, which keeps no
// stack, calls it once per warm-up iteration and once more to count.
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

/// References per chunk, and per access_batch call: large enough to
/// amortize the gather/scatter bookkeeping and keep the engines' prefetch
/// pipelines full, small enough that the scratch arrays stay L2-resident.
inline constexpr std::size_t kReplayBatch = 1024;

/// Everything the shards of one run share, resolved once at entry.
struct ReplayPlan {
    /// Checks the options' preconditions. Throws StatusError
    /// (ValidationError) when the sample rate fails valid_sample_rate, or
    /// when the run's references cannot be packed: more than 2048
    /// simulated threads, or a line number of 2^48 or more.
    /// `x_prefetch_distance` adds the software-prefetch hints of
    /// TraceConfig::x_prefetch_distance to the trace: the model's engines
    /// see demand references only (0), the simulator sweep passes its own.
    ReplayPlan(const AnyCsrView& matrix, const ModelOptions& options,
               std::int64_t x_prefetch_distance = 0);

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
    /// The run's SHARDS filter (exact unless sampling is on).
    SampleFilter filter;

    [[nodiscard]] std::int64_t first_thread(std::int64_t segment) const;
    [[nodiscard]] std::int64_t threads_in(std::int64_t segment) const;

    /// Runs fn(segment) for every segment, concurrently on effective_jobs
    /// pool workers (serial when that is 1 — no pool, no threads).
    /// Exceptions from fn propagate to the caller in both modes.
    void for_each_shard(const std::function<void(std::int64_t)>& fn) const;
};

/// Receives one chunk of at most kReplayBatch packed words, in trace
/// order.
using ChunkConsumer =
    std::function<void(std::span<const std::uint64_t> words)>;

/// Plays one iteration of segment `segment` through `consume`, deriving
/// it as it goes, and returns the shard's record; `seconds` is left for
/// the caller, whose shard may do more than this pass.
[[nodiscard]] ShardStats replay_segment(const ReplayPlan& plan,
                                        std::int64_t segment,
                                        const ChunkConsumer& consume);

}  // namespace spmvcache::detail
