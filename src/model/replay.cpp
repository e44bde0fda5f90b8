#include "model/replay.hpp"

#include <algorithm>
#include <string>

#include "sync/thread_pool.hpp"
#include "trace/packed_trace.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache::detail {

namespace {

const ModelOptions& checked(const ModelOptions& opts) {
    SPMV_EXPECTS(opts.threads >= 1);
    SPMV_EXPECTS(opts.threads <= opts.machine.cores);
    SPMV_EXPECTS(opts.jobs >= 0);
    if (!valid_sample_rate(opts.sample_rate))
        throw_status(Error(ErrorCode::ValidationError,
                           "sample rate must be in [2^-53, 1]"));
    return opts;
}

/// Resolves ModelOptions::sample_rate into the filter every shard of the
/// run shares. R = 1 yields the exact filter; so does an armed
/// `reuse.sample` fault — sampling failure degrades the whole run to exact
/// computation (slower, never wrong). Callers detect degradation via
/// filter.exact().
SampleFilter resolve_sample_filter(double sample_rate) {
    if (sample_rate >= 1.0) return SampleFilter{};
    if (fault::should_fail("reuse.sample")) return SampleFilter{};
    return SampleFilter(sample_rate);
}
}  // namespace

ReplayPlan::ReplayPlan(const AnyCsrView& matrix, const ModelOptions& opts,
                       std::int64_t x_prefetch_distance)
    : options(checked(opts)),
      m(matrix),
      layout(matrix.rows(), matrix.cols(), matrix.nnz(),
             opts.machine.l2.line_bytes,
             opts.colidx_bytes_for(matrix.index_width()),
             opts.rowptr_bytes_for(matrix.index_width())),
      trace_cfg{opts.threads, opts.partition, opts.quantum,
                x_prefetch_distance},
      segments(trace_segment_count(opts.threads, opts.machine.cores_per_numa)),
      effective_jobs(std::max<std::int64_t>(
          1, std::min(opts.jobs >= 1 ? opts.jobs
                                     : static_cast<std::int64_t>(
                                           default_host_jobs()),
                      segments))),
      segment_lengths(matrix.visit([&](const auto& v) {
          return spmv_segment_lengths(v, trace_cfg,
                                      opts.machine.cores_per_numa);
      })),
      filter(resolve_sample_filter(opts.sample_rate)) {
    if (static_cast<std::uint64_t>(opts.threads) > kPackedThreadMask + 1 ||
        layout.total_lines() > kPackedLineMask + 1)
        throw_status(Error(ErrorCode::ValidationError,
                           "trace does not fit the packed encoding: " +
                               std::to_string(opts.threads) +
                               " simulated threads (max 2048), " +
                               std::to_string(layout.total_lines()) +
                               " lines (max 2^48)"));
}

std::int64_t ReplayPlan::first_thread(std::int64_t segment) const {
    return segment * options.machine.cores_per_numa;
}

std::int64_t ReplayPlan::threads_in(std::int64_t segment) const {
    return std::min(options.threads,
                    first_thread(segment) + options.machine.cores_per_numa) -
           first_thread(segment);
}

void ReplayPlan::for_each_shard(
    const std::function<void(std::int64_t)>& fn) const {
    if (effective_jobs <= 1) {
        for (std::int64_t s = 0; s < segments; ++s) fn(s);
        return;
    }
    ThreadPool pool(static_cast<std::size_t>(effective_jobs));
    pool.parallel_for(static_cast<std::size_t>(segments),
                      [&fn](std::size_t s) {
                          fn(static_cast<std::int64_t>(s));
                      });
}

ShardStats replay_segment(const ReplayPlan& plan, std::int64_t segment,
                          const ChunkConsumer& consume) {
    ShardStats st;
    st.segment = segment;
    st.threads = plan.threads_in(segment);
    st.references = plan.segment_lengths[static_cast<std::size_t>(segment)];
    st.packed_replay = true;
    std::vector<std::uint64_t> chunk;
    chunk.reserve(kReplayBatch);
    const auto flush = [&] {
        consume(chunk);
        st.sampled_refs += chunk.size();
        chunk.clear();
    };
    plan.m.visit([&](const auto& v) {
        generate_spmv_trace_segment(
            v, plan.layout, plan.trace_cfg, plan.options.machine.cores_per_numa,
            segment, [&](const MemRef& ref) {
                if (!plan.filter.keep(ref.line)) return;
                chunk.push_back(pack_memref(ref));
                if (chunk.size() == kReplayBatch) flush();
            });
    });
    if (!chunk.empty()) flush();
    return st;
}

}  // namespace spmvcache::detail
