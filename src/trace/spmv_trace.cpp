#include "trace/spmv_trace.hpp"

#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache {

[[nodiscard]] Result<std::uint64_t> try_spmv_trace_length(
    std::int64_t rows, std::int64_t nnz) {
    if (rows < 0 || nnz < 0)
        return Error(ErrorCode::ValidationError,
                     "negative rows/nnz in trace-length computation");
    SPMV_ASSIGN_OR_RETURN(
        const std::uint64_t row_refs,
        checked_mul<std::uint64_t>(4, static_cast<std::uint64_t>(rows)));
    SPMV_ASSIGN_OR_RETURN(
        const std::uint64_t nnz_refs,
        checked_mul<std::uint64_t>(3, static_cast<std::uint64_t>(nnz)));
    return checked_add(row_refs, nnz_refs);
}

template <class Idx>
std::vector<MemRef> collect_spmv_trace(const BasicCsrView<Idx>& m,
                                       const SpmvLayout& layout,
                                       const TraceConfig& cfg) {
    // A typed OverflowError first: the segment's reservation below sums
    // its length under a contract check instead.
    Result<std::uint64_t> length = try_spmv_trace_length(m.rows(), m.nnz());
    if (!length.ok()) throw_status(std::move(length).to_error());
    return collect_spmv_trace_segment(m, layout, cfg, cfg.threads, 0);
}

template <class Idx>
std::vector<MemRef> collect_spmv_trace_segment(const BasicCsrView<Idx>& m,
                                               const SpmvLayout& layout,
                                               const TraceConfig& cfg,
                                               std::int64_t cores_per_numa,
                                               std::int64_t segment) {
    fault::maybe_throw("trace.generate");
    std::vector<MemRef> trace;
    // Exact demand-reference count (a lower bound when software-prefetch
    // hints are configured): without it, materialising a large segment
    // reallocates log2(len) times in tests and diagnostics.
    trace.reserve(static_cast<std::size_t>(
        spmv_segment_lengths(m, cfg, cores_per_numa)
            [static_cast<std::size_t>(segment)]));
    generate_spmv_trace_segment(
        m, layout, cfg, cores_per_numa, segment,
        [&trace](const MemRef& ref) { trace.push_back(ref); });
    return trace;
}

template <class Idx>
std::vector<std::uint64_t> spmv_segment_lengths(const BasicCsrView<Idx>& m,
                                                const TraceConfig& cfg,
                                                std::int64_t cores_per_numa) {
    SPMV_EXPECTS(cores_per_numa >= 1);
    const RowPartition partition(m, cfg.threads, cfg.partition);
    const auto rowptr = m.rowptr();
    std::vector<std::uint64_t> lengths(static_cast<std::size_t>(
        trace_segment_count(cfg.threads, cores_per_numa)));
    for (std::int64_t t = 0; t < cfg.threads; ++t) {
        const auto& range = partition.range(t);
        const std::int64_t nnz =
            static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(range.end)]) -
            static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(range.begin)]);
        // Per-segment demand-reference totals feed shard scheduling and
        // the instrumentation output; a wrapped sum here would silently
        // misreport every shard, so the arithmetic is contract-checked.
        std::uint64_t row_refs = 0, nnz_refs = 0, segment_refs = 0;
        SPMV_EXPECTS(checked_mul<std::uint64_t>(
            4, static_cast<std::uint64_t>(range.size()), row_refs));
        SPMV_EXPECTS(checked_mul<std::uint64_t>(
            3, static_cast<std::uint64_t>(nnz), nnz_refs));
        SPMV_EXPECTS(checked_add(row_refs, nnz_refs, segment_refs));
        auto& slot = lengths[static_cast<std::size_t>(t / cores_per_numa)];
        SPMV_EXPECTS(checked_add(slot, segment_refs, slot));
    }
    return lengths;
}

template std::vector<MemRef> collect_spmv_trace<Idx32>(
    const BasicCsrView<Idx32>&, const SpmvLayout&, const TraceConfig&);
template std::vector<MemRef> collect_spmv_trace<Idx64>(
    const BasicCsrView<Idx64>&, const SpmvLayout&, const TraceConfig&);
template std::vector<MemRef> collect_spmv_trace_segment<Idx32>(
    const BasicCsrView<Idx32>&, const SpmvLayout&, const TraceConfig&,
    std::int64_t, std::int64_t);
template std::vector<MemRef> collect_spmv_trace_segment<Idx64>(
    const BasicCsrView<Idx64>&, const SpmvLayout&, const TraceConfig&,
    std::int64_t, std::int64_t);
template std::vector<std::uint64_t> spmv_segment_lengths<Idx32>(
    const BasicCsrView<Idx32>&, const TraceConfig&, std::int64_t);
template std::vector<std::uint64_t> spmv_segment_lengths<Idx64>(
    const BasicCsrView<Idx64>&, const TraceConfig&, std::int64_t);

}  // namespace spmvcache
