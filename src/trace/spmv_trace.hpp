// SpMV memory-trace generation from the sparsity pattern (§3.2.1, Fig. 1b).
//
// The trace is *derived*, never recorded from an instrumented run: for each
// row the generator emits the references the CSR kernel of Listing 1 would
// make — rowptr[r], rowptr[r+1], then per nonzero a[i], colidx[i],
// x[colidx[i]], and finally the y[r] read-modify-write — mapped to cache
// lines by SpmvLayout.
//
// Parallel traces interleave the per-thread reference streams round-robin
// at a configurable quantum (default: one nonzero per thread per turn):
// the deterministic, reproducible stand-in for the MCS-lock interleaving
// of concurrent threads the paper describes (§3.2.1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sparse/csr_view.hpp"
#include "sparse/partition.hpp"
#include "trace/layout.hpp"
#include "trace/memref.hpp"
#include "util/error.hpp"

namespace spmvcache {

/// Options for trace generation.
struct TraceConfig {
    std::int64_t threads = 1;
    PartitionPolicy partition = PartitionPolicy::BalancedRows;
    /// Nonzeros each thread advances per round-robin turn.
    std::int64_t quantum = 1;
    /// Software-prefetch distance for the x vector, in nonzeros: at
    /// nonzero i the kernel additionally issues prfm x[colidx[i + D]]
    /// (within the current row). 0 disables. This models the paper's
    /// future-work idea of software prefetching the irregular x accesses.
    std::int64_t x_prefetch_distance = 0;
};

/// Number of references one SpMV iteration generates:
/// 2 rowptr loads + y load + y store per row, and 3 loads per nonzero.
[[nodiscard]] constexpr std::uint64_t spmv_trace_length(
    std::int64_t rows, std::int64_t nnz) noexcept {
    return 4 * static_cast<std::uint64_t>(rows) +
           3 * static_cast<std::uint64_t>(nnz);
}

/// Overflow-checked spmv_trace_length: OverflowError instead of a wrapped
/// count when 4*rows + 3*nnz exceeds uint64 (the wrapped value would
/// silently shrink every downstream reservation and miss total).
[[nodiscard]] Result<std::uint64_t> try_spmv_trace_length(std::int64_t rows,
                                                          std::int64_t nnz);

namespace detail {

/// Per-thread generation cursor over its contiguous row range.
struct TraceCursor {
    std::int64_t row = 0;
    std::int64_t row_end = 0;   ///< one past the last owned row
    std::int64_t i = 0;         ///< next nonzero index within current row
    std::int64_t i_end = 0;     ///< end of current row's nonzeros
    bool row_opened = false;

    [[nodiscard]] bool done() const noexcept {
        return row >= row_end && !row_opened;
    }
};

/// Emits the references of up to `quantum` nonzeros (plus any row-boundary
/// references) for one thread. Returns false once the cursor is exhausted.
/// `x_prefetch_distance` > 0 interleaves prfm hints for x (see
/// TraceConfig::x_prefetch_distance).
template <class Idx, class Sink>
bool advance(const BasicCsrView<Idx>& m, const SpmvLayout& layout,
             std::uint32_t t,
             TraceCursor& cur, std::int64_t quantum, Sink&& sink,
             std::int64_t x_prefetch_distance = 0) {
    if (cur.done()) return false;
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();

    std::int64_t budget = quantum;
    while (budget > 0 && !cur.done()) {
        if (!cur.row_opened) {
            // Row header: the kernel loads rowptr[r] and rowptr[r+1].
            sink(MemRef{layout.rowptr_line(cur.row), t, DataObject::RowPtr,
                        false});
            sink(MemRef{layout.rowptr_line(cur.row + 1), t, DataObject::RowPtr,
                        false});
            cur.i = static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(cur.row)]);
            cur.i_end = static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(cur.row) + 1]);
            cur.row_opened = true;
            if (x_prefetch_distance > 0) {
                // Priming prefetches for the first elements of the row.
                const std::int64_t prime_end =
                    std::min(cur.i + x_prefetch_distance, cur.i_end);
                for (std::int64_t p = cur.i; p < prime_end; ++p) {
                    sink(MemRef{
                        layout.x_line(colidx[static_cast<std::size_t>(p)]),
                        t, DataObject::X, false, /*is_prefetch=*/true});
                }
            }
        }
        while (budget > 0 && cur.i < cur.i_end) {
            const std::int64_t i = cur.i++;
            sink(MemRef{layout.values_line(i), t, DataObject::Values, false});
            sink(MemRef{layout.colidx_line(i), t, DataObject::ColIdx, false});
            if (x_prefetch_distance > 0 &&
                i + x_prefetch_distance < cur.i_end) {
                sink(MemRef{layout.x_line(colidx[static_cast<std::size_t>(
                                i + x_prefetch_distance)]),
                            t, DataObject::X, false, /*is_prefetch=*/true});
            }
            sink(MemRef{
                layout.x_line(colidx[static_cast<std::size_t>(i)]), t,
                DataObject::X, false});
            --budget;
        }
        if (cur.i >= cur.i_end) {
            // Row footer: accumulate into y[r] (read-modify-write).
            sink(MemRef{layout.y_line(cur.row), t, DataObject::Y, false});
            sink(MemRef{layout.y_line(cur.row), t, DataObject::Y, true});
            cur.row_opened = false;
            ++cur.row;
        }
    }
    return !cur.done();
}

}  // namespace detail

/// Number of L2 segments a trace configuration spans when simulated
/// threads map to segments in blocks of `cores_per_numa` (segment of
/// thread t = t / cores_per_numa, as on the A64FX's CMGs).
[[nodiscard]] constexpr std::int64_t trace_segment_count(
    std::int64_t threads, std::int64_t cores_per_numa) noexcept {
    return (threads + cores_per_numa - 1) / cores_per_numa;
}

/// Generates only the references whose simulated thread belongs to
/// `segment`, in exactly the order those references appear in the full
/// round-robin interleaving (generate_spmv_trace below).
///
/// This is what makes host-parallel sharded model execution possible:
/// each thread's cursor advances independently of the others, so the
/// subsequence owned by one segment's threads is reproduced by
/// round-robining over just those threads — turn by turn, threads in
/// index order, cfg.quantum nonzeros per thread per turn. Extra turns of
/// the full loop in which this segment's threads are already exhausted
/// contribute no references, so the filtered stream is identical.
/// Concatenating the streams of all segments therefore yields a
/// permutation of the full trace that preserves every per-thread (and
/// per-segment) subsequence — the only orderings the per-segment and
/// per-core stack engines can observe.
template <class Idx, class Sink>
void generate_spmv_trace_segment(const BasicCsrView<Idx>& m,
                                 const SpmvLayout& layout,
                                 const TraceConfig& cfg,
                                 std::int64_t cores_per_numa,
                                 std::int64_t segment, Sink&& sink) {
    SPMV_EXPECTS(cores_per_numa >= 1);
    SPMV_EXPECTS(segment >= 0 &&
                 segment < trace_segment_count(cfg.threads, cores_per_numa));
    // The row partition must be derived over *all* threads so each shard
    // sees exactly the row ranges of the unsharded trace.
    const RowPartition partition(m, cfg.threads, cfg.partition);
    const std::int64_t t_begin = segment * cores_per_numa;
    const std::int64_t t_end =
        std::min(cfg.threads, t_begin + cores_per_numa);
    std::vector<detail::TraceCursor> cursors(
        static_cast<std::size_t>(t_end - t_begin));
    for (std::int64_t t = t_begin; t < t_end; ++t) {
        const auto& range = partition.range(t);
        cursors[static_cast<std::size_t>(t - t_begin)] =
            detail::TraceCursor{range.begin, range.end, 0, 0, false};
    }

    bool any_active = true;
    while (any_active) {
        any_active = false;
        for (std::int64_t t = t_begin; t < t_end; ++t) {
            if (detail::advance(m, layout, static_cast<std::uint32_t>(t),
                                cursors[static_cast<std::size_t>(t - t_begin)],
                                cfg.quantum, sink, cfg.x_prefetch_distance))
                any_active = true;
        }
    }
}

/// Generates one SpMV iteration's trace, calling sink(const MemRef&) for
/// every reference. With cfg.threads == 1 this is the sequential program
/// order; otherwise the per-thread streams are interleaved round-robin,
/// cfg.quantum nonzeros per thread per turn. The full trace is the one
/// segment that holds every thread.
template <class Idx, class Sink>
void generate_spmv_trace(const BasicCsrView<Idx>& m, const SpmvLayout& layout,
                         const TraceConfig& cfg, Sink&& sink) {
    generate_spmv_trace_segment(m, layout, cfg, cfg.threads, 0,
                                std::forward<Sink>(sink));
}

/// Materialises a trace into a vector (small matrices / tests).
template <class Idx>
[[nodiscard]] std::vector<MemRef> collect_spmv_trace(
    const BasicCsrView<Idx>& m, const SpmvLayout& layout,
    const TraceConfig& cfg);

/// Materialises one segment's filtered trace (tests / diagnostics).
template <class Idx>
[[nodiscard]] std::vector<MemRef> collect_spmv_trace_segment(
    const BasicCsrView<Idx>& m, const SpmvLayout& layout,
    const TraceConfig& cfg, std::int64_t cores_per_numa,
    std::int64_t segment);

/// Demand-reference count of each segment's filtered trace (one SpMV
/// iteration): 4 refs per owned row + 3 per owned nonzero, summed over the
/// segment's threads. Software-prefetch hints are not counted. The entries
/// sum to spmv_trace_length(rows, nnz) for every partition/quantum choice.
template <class Idx>
[[nodiscard]] std::vector<std::uint64_t> spmv_segment_lengths(
    const BasicCsrView<Idx>& m, const TraceConfig& cfg,
    std::int64_t cores_per_numa);

extern template std::vector<MemRef> collect_spmv_trace<Idx32>(
    const BasicCsrView<Idx32>&, const SpmvLayout&, const TraceConfig&);
extern template std::vector<MemRef> collect_spmv_trace<Idx64>(
    const BasicCsrView<Idx64>&, const SpmvLayout&, const TraceConfig&);
extern template std::vector<MemRef> collect_spmv_trace_segment<Idx32>(
    const BasicCsrView<Idx32>&, const SpmvLayout&, const TraceConfig&,
    std::int64_t, std::int64_t);
extern template std::vector<MemRef> collect_spmv_trace_segment<Idx64>(
    const BasicCsrView<Idx64>&, const SpmvLayout&, const TraceConfig&,
    std::int64_t, std::int64_t);
extern template std::vector<std::uint64_t> spmv_segment_lengths<Idx32>(
    const BasicCsrView<Idx32>&, const TraceConfig&, std::int64_t);
extern template std::vector<std::uint64_t> spmv_segment_lengths<Idx64>(
    const BasicCsrView<Idx64>&, const TraceConfig&, std::int64_t);

}  // namespace spmvcache
