#include "trace/spmv_trace.hpp"

#include <exception>
#include <thread>

#include "sync/mcs_lock.hpp"
#include "util/annotated_mutex.hpp"
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
        SPMV_EXPECT(checked_mul<std::uint64_t>(
            4, static_cast<std::uint64_t>(range.size()), row_refs));
        SPMV_EXPECT(checked_mul<std::uint64_t>(
            3, static_cast<std::uint64_t>(nnz), nnz_refs));
        SPMV_EXPECT(checked_add(row_refs, nnz_refs, segment_refs));
        auto& slot = lengths[static_cast<std::size_t>(t / cores_per_numa)];
        SPMV_EXPECT(checked_add(slot, segment_refs, slot));
    }
    return lengths;
}

template <class Idx>
std::vector<MemRef> record_spmv_trace_mcs(const BasicCsrView<Idx>& m,
                                          const SpmvLayout& layout,
                                          std::int64_t threads,
                                          std::int64_t chunk_refs,
                                          PartitionPolicy partition) {
    SPMV_EXPECTS(threads >= 1);
    SPMV_EXPECTS(chunk_refs >= 1);
    fault::maybe_throw("trace.generate");

    // Workers must not let exceptions escape their thread (std::terminate);
    // the first failure is captured and rethrown on the calling thread
    // after all workers have drained.
    Mutex failure_mutex;
    std::exception_ptr failure;

    Result<std::uint64_t> length = try_spmv_trace_length(m.rows(), m.nnz());
    if (!length.ok()) throw_status(std::move(length).to_error());

    std::vector<MemRef> shared;
    shared.reserve(length.value());
    McsLock lock;
    const RowPartition row_partition(m, threads, partition);

    auto worker = [&](std::int64_t t) {
        const auto& range = row_partition.range(t);
        detail::TraceCursor cursor{range.begin, range.end, 0, 0, false};
        std::vector<MemRef> chunk;
        chunk.reserve(static_cast<std::size_t>(chunk_refs) + 8);

        auto flush = [&] {
            if (chunk.empty()) return;
            McsGuard guard(lock);
            shared.insert(shared.end(), chunk.begin(), chunk.end());
            chunk.clear();
        };

        bool active = true;
        while (active) {
            fault::maybe_throw("trace.worker");
            // Advance until the local chunk reaches the submission size,
            // then publish it under the MCS lock.
            while (active &&
                   static_cast<std::int64_t>(chunk.size()) < chunk_refs) {
                active = detail::advance(
                    m, layout, static_cast<std::uint32_t>(t), cursor,
                    /*quantum=*/1,
                    [&chunk](const MemRef& ref) { chunk.push_back(ref); });
            }
            flush();
        }
    };

    auto guarded_worker = [&](std::int64_t t) {
        try {
            worker(t);
        } catch (...) {
            const MutexLock failure_guard(failure_mutex);
            if (!failure) failure = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (std::int64_t t = 0; t < threads; ++t)
        pool.emplace_back(guarded_worker, t);
    for (auto& th : pool) th.join();
    if (failure) std::rethrow_exception(failure);

    SPMV_ENSURES(shared.size() == spmv_trace_length(m.rows(), m.nnz()));
    return shared;
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
template std::vector<MemRef> record_spmv_trace_mcs<Idx32>(
    const BasicCsrView<Idx32>&, const SpmvLayout&, std::int64_t,
    std::int64_t, PartitionPolicy);
template std::vector<MemRef> record_spmv_trace_mcs<Idx64>(
    const BasicCsrView<Idx64>&, const SpmvLayout&, std::int64_t,
    std::int64_t, PartitionPolicy);

}  // namespace spmvcache
