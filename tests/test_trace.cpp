// Unit tests for src/trace: the Fig. 1 layout, trace generation from the
// sparsity pattern and round-robin interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "sparse/coo.hpp"
#include "sparse/gen/banded.hpp"
#include "trace/layout.hpp"
#include "trace/spmv_trace.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

CsrMatrix figure1_matrix() {
    // Fig. 1a: 4x4 with 7 nonzeros.
    CooMatrix coo(4, 4);
    coo.add(0, 1, 1.0);
    coo.add(0, 2, 1.0);
    coo.add(1, 0, 1.0);
    coo.add(2, 2, 1.0);
    coo.add(2, 3, 1.0);
    coo.add(3, 1, 1.0);
    coo.add(3, 3, 1.0);
    return std::move(coo).to_csr();
}

TEST(Layout, MatchesFigure1cWith16ByteLines) {
    // Fig. 1c: 16-byte lines; x[0-1]=line0, x[2-3]=line1, y lines 2-3,
    // a lines 4-7, colidx lines 8-9, rowptr lines 10-12.
    const SpmvLayout layout(4, 4, 7, 16);
    EXPECT_EQ(layout.x_line(0), 0u);
    EXPECT_EQ(layout.x_line(1), 0u);
    EXPECT_EQ(layout.x_line(2), 1u);
    EXPECT_EQ(layout.y_line(0), 2u);
    EXPECT_EQ(layout.y_line(3), 3u);
    EXPECT_EQ(layout.values_line(0), 4u);
    EXPECT_EQ(layout.values_line(1), 4u);
    EXPECT_EQ(layout.values_line(2), 5u);
    EXPECT_EQ(layout.values_line(6), 7u);
    EXPECT_EQ(layout.colidx_line(0), 8u);
    EXPECT_EQ(layout.colidx_line(3), 8u);
    EXPECT_EQ(layout.colidx_line(4), 9u);
    EXPECT_EQ(layout.rowptr_line(0), 10u);
    EXPECT_EQ(layout.rowptr_line(2), 11u);
    EXPECT_EQ(layout.rowptr_line(4), 12u);
    EXPECT_EQ(layout.total_lines(), 13u);
}

TEST(Layout, ObjectOfInvertsLineMapping) {
    const SpmvLayout layout(4, 4, 7, 16);
    EXPECT_EQ(layout.object_of(0), DataObject::X);
    EXPECT_EQ(layout.object_of(2), DataObject::Y);
    EXPECT_EQ(layout.object_of(4), DataObject::Values);
    EXPECT_EQ(layout.object_of(8), DataObject::ColIdx);
    EXPECT_EQ(layout.object_of(12), DataObject::RowPtr);
}

TEST(Layout, A64fxLineSize) {
    const SpmvLayout layout(1000, 1000, 10000, 256);
    // 32 8-byte elements per line, 64 4-byte elements per line.
    EXPECT_EQ(layout.lines_of(DataObject::X), (1000u * 8 + 255) / 256);
    EXPECT_EQ(layout.lines_of(DataObject::ColIdx), (10000u * 4 + 255) / 256);
    EXPECT_EQ(layout.x_line(31), layout.x_line(0));
    EXPECT_NE(layout.x_line(32), layout.x_line(0));
}

TEST(Trace, LengthFormulaHolds) {
    const CsrMatrix m = figure1_matrix();
    const SpmvLayout layout(m, 16);
    const auto trace = collect_spmv_trace(m, layout, TraceConfig{1});
    EXPECT_EQ(trace.size(), spmv_trace_length(m.rows(), m.nnz()));
    EXPECT_EQ(trace.size(), 4u * 4 + 3u * 7);
}

TEST(Trace, SequentialOrderMatchesListing1) {
    const CsrMatrix m = figure1_matrix();
    const SpmvLayout layout(m, 16);
    const auto trace = collect_spmv_trace(m, layout, TraceConfig{1});

    // Row 0 references: rowptr[0], rowptr[1], then per nonzero a, colidx,
    // x[colidx], then the y[0] read-modify-write.
    ASSERT_GE(trace.size(), 10u);
    EXPECT_EQ(trace[0].object, DataObject::RowPtr);
    EXPECT_EQ(trace[0].line, layout.rowptr_line(0));
    EXPECT_EQ(trace[1].object, DataObject::RowPtr);
    EXPECT_EQ(trace[2].object, DataObject::Values);
    EXPECT_EQ(trace[3].object, DataObject::ColIdx);
    EXPECT_EQ(trace[4].object, DataObject::X);
    EXPECT_EQ(trace[4].line, layout.x_line(1));  // colidx[0] == 1
    EXPECT_EQ(trace[5].object, DataObject::Values);
    EXPECT_EQ(trace[7].object, DataObject::X);
    EXPECT_EQ(trace[7].line, layout.x_line(2));  // colidx[1] == 2
    EXPECT_EQ(trace[8].object, DataObject::Y);
    EXPECT_FALSE(trace[8].is_write);
    EXPECT_EQ(trace[9].object, DataObject::Y);
    EXPECT_TRUE(trace[9].is_write);
}

TEST(Trace, OnlyYReferencesAreWrites) {
    const CsrMatrix m = figure1_matrix();
    const SpmvLayout layout(m, 16);
    for (const auto& ref : collect_spmv_trace(m, layout, TraceConfig{1})) {
        if (ref.is_write) {
            EXPECT_EQ(ref.object, DataObject::Y);
        }
    }
}

TEST(Trace, ParallelPreservesPerThreadSubsequences) {
    const CsrMatrix m = figure1_matrix();
    const SpmvLayout layout(m, 16);
    const auto sequential = collect_spmv_trace(m, layout, TraceConfig{1});
    const auto parallel = collect_spmv_trace(m, layout, TraceConfig{2});
    ASSERT_EQ(parallel.size(), sequential.size());

    // Thread t's subsequence equals its rows' segment of the sequential
    // trace (thread 0 owns rows [0,2), thread 1 rows [2,4), and the
    // sequential trace visits rows in order).
    std::vector<std::vector<std::uint64_t>> sub(2);
    for (const auto& ref : parallel) sub[ref.thread].push_back(ref.line);
    const std::size_t split = sub[0].size();
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        const auto& expected =
            i < split ? sub[0][i] : sub[1][i - split];
        EXPECT_EQ(sequential[i].line, expected) << "position " << i;
    }

    // Same total multiset of lines as sequential.
    auto lines_of = [](const std::vector<MemRef>& t) {
        std::vector<std::uint64_t> l;
        l.reserve(t.size());
        for (const auto& r : t) l.push_back(r.line);
        std::sort(l.begin(), l.end());
        return l;
    };
    EXPECT_EQ(lines_of(parallel), lines_of(sequential));
}

TEST(Trace, RoundRobinInterleavesAtQuantumGranularity) {
    // With 2 threads and quantum 1, thread turns alternate while both are
    // active: the first reference of thread 1 appears before thread 0 has
    // finished all of its rows.
    const CsrMatrix m = figure1_matrix();
    const SpmvLayout layout(m, 16);
    const auto trace = collect_spmv_trace(m, layout, TraceConfig{2});
    std::size_t first_t1 = trace.size(), last_t0 = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].thread == 1 && first_t1 == trace.size()) first_t1 = i;
        if (trace[i].thread == 0) last_t0 = i;
    }
    EXPECT_LT(first_t1, last_t0);
}

TEST(Trace, EmptyRowsEmitHeaderAndFooter) {
    CsrBuilder b(3, 3);
    b.push(1, 1, 1.0);
    const CsrMatrix m = std::move(b).finish();
    const SpmvLayout layout(m, 16);
    const auto trace = collect_spmv_trace(m, layout, TraceConfig{1});
    EXPECT_EQ(trace.size(), spmv_trace_length(3, 1));
    // Rows 0 and 2 contribute rowptr+y refs only.
    std::map<DataObject, int> count;
    for (const auto& ref : trace) ++count[ref.object];
    EXPECT_EQ(count[DataObject::RowPtr], 6);
    EXPECT_EQ(count[DataObject::Y], 6);
    EXPECT_EQ(count[DataObject::X], 1);
}

// ---- Segment-filtered generation (host-parallel model sharding) --------

/// Sortable projection of a reference for multiset comparison.
using RefKey = std::tuple<std::uint64_t, std::uint32_t, int, bool, bool>;

RefKey key_of(const MemRef& r) {
    return {r.line, r.thread, static_cast<int>(r.object), r.is_write,
            r.is_prefetch};
}

TEST(TraceSegment, EqualsFilteredFullTrace) {
    // The strongest form of the sharding property: each segment's stream
    // is *elementwise equal* to the full trace filtered to that segment's
    // threads — same references, same order. Permutation and per-thread
    // subsequence preservation both follow.
    const CsrMatrix m = gen::banded(97, 5, 11, 3);
    const SpmvLayout layout(m, 64);
    for (const std::int64_t threads : {1, 2, 3, 5, 8}) {
        for (const std::int64_t quantum : {1, 2, 7}) {
            for (const std::int64_t cpn : {1, 2, 3}) {
                const TraceConfig cfg{threads, PartitionPolicy::BalancedRows,
                                      quantum};
                const auto full = collect_spmv_trace(m, layout, cfg);
                const std::int64_t segments =
                    trace_segment_count(threads, cpn);
                std::size_t total = 0;
                for (std::int64_t s = 0; s < segments; ++s) {
                    std::vector<MemRef> expected;
                    for (const auto& ref : full)
                        if (static_cast<std::int64_t>(ref.thread) / cpn == s)
                            expected.push_back(ref);
                    const auto actual = collect_spmv_trace_segment(
                        m, layout, cfg, cpn, s);
                    ASSERT_EQ(actual.size(), expected.size())
                        << "threads=" << threads << " quantum=" << quantum
                        << " cpn=" << cpn << " segment=" << s;
                    for (std::size_t i = 0; i < actual.size(); ++i)
                        ASSERT_TRUE(actual[i] == expected[i])
                            << "threads=" << threads << " quantum=" << quantum
                            << " cpn=" << cpn << " segment=" << s
                            << " position=" << i;
                    total += actual.size();
                }
                EXPECT_EQ(total, full.size());
            }
        }
    }
}

TEST(TraceSegment, ConcatenationIsPermutationForRandomConfigs) {
    // Property test over random quantum/thread/cpn configurations: the
    // concatenation over all segments is a permutation of the full trace,
    // per-thread subsequences are preserved, and per-shard reference
    // counts sum to spmv_trace_length(rows, nnz).
    const CsrMatrix m = gen::banded(211, 7, 19, 5);
    const SpmvLayout layout(m, 128);
    Xoshiro256 rng(2026);
    for (int trial = 0; trial < 24; ++trial) {
        const auto threads =
            static_cast<std::int64_t>(1 + rng.bounded(12));
        const auto quantum =
            static_cast<std::int64_t>(1 + rng.bounded(9));
        const auto cpn = static_cast<std::int64_t>(1 + rng.bounded(5));
        const auto policy = rng.bounded(2) == 0
                                ? PartitionPolicy::BalancedRows
                                : PartitionPolicy::BalancedNonzeros;
        const TraceConfig cfg{threads, policy, quantum};
        const auto full = collect_spmv_trace(m, layout, cfg);
        const std::int64_t segments = trace_segment_count(threads, cpn);

        const auto lengths = spmv_segment_lengths(m, cfg, cpn);
        ASSERT_EQ(lengths.size(), static_cast<std::size_t>(segments));
        std::uint64_t length_sum = 0;

        std::vector<RefKey> concat_keys;
        std::map<std::uint32_t, std::vector<std::uint64_t>> sub_segment;
        for (std::int64_t s = 0; s < segments; ++s) {
            const auto part =
                collect_spmv_trace_segment(m, layout, cfg, cpn, s);
            EXPECT_EQ(part.size(), lengths[static_cast<std::size_t>(s)])
                << "trial " << trial << " segment " << s;
            length_sum += lengths[static_cast<std::size_t>(s)];
            for (const auto& ref : part) {
                concat_keys.push_back(key_of(ref));
                sub_segment[ref.thread].push_back(ref.line);
            }
        }
        EXPECT_EQ(length_sum, spmv_trace_length(m.rows(), m.nnz()))
            << "trial " << trial;

        // Permutation of the full trace.
        std::vector<RefKey> full_keys;
        full_keys.reserve(full.size());
        for (const auto& ref : full) full_keys.push_back(key_of(ref));
        std::sort(concat_keys.begin(), concat_keys.end());
        std::sort(full_keys.begin(), full_keys.end());
        EXPECT_EQ(concat_keys, full_keys) << "trial " << trial;

        // Per-thread subsequences preserved.
        std::map<std::uint32_t, std::vector<std::uint64_t>> sub_full;
        for (const auto& ref : full) sub_full[ref.thread].push_back(ref.line);
        EXPECT_EQ(sub_segment, sub_full) << "trial " << trial;
    }
}

TEST(Trace, SectorPolicyAssignment) {
    EXPECT_EQ(sector_of(DataObject::Values, SectorPolicy::IsolateMatrix), 1);
    EXPECT_EQ(sector_of(DataObject::ColIdx, SectorPolicy::IsolateMatrix), 1);
    EXPECT_EQ(sector_of(DataObject::X, SectorPolicy::IsolateMatrix), 0);
    EXPECT_EQ(sector_of(DataObject::Y, SectorPolicy::IsolateMatrix), 0);
    EXPECT_EQ(sector_of(DataObject::RowPtr, SectorPolicy::IsolateMatrix), 0);
    for (int o = 0; o < kDataObjectCount; ++o)
        EXPECT_EQ(sector_of(static_cast<DataObject>(o),
                            SectorPolicy::NoPartition),
                  0);
    EXPECT_EQ(sector_of(DataObject::Y, SectorPolicy::IsolateMatrixRowptrY),
              1);
    EXPECT_EQ(sector_of(DataObject::X, SectorPolicy::IsolateX), 0);
    EXPECT_EQ(sector_of(DataObject::Y, SectorPolicy::IsolateX), 1);
}

}  // namespace
}  // namespace spmvcache
