// Tests for the SELL-C-sigma format, kernel and trace model (the paper's
// future-work extension).
#include <gtest/gtest.h>

#include <vector>

#include "cachesim/hierarchy.hpp"
#include "kernels/spmv.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/sellcs.hpp"
#include "trace/sell_trace.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> v(n);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
}

class SellConversion
    : public testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(SellConversion, SpmvMatchesCsrReference) {
    const auto [c, sigma] = GetParam();
    const CsrMatrix csr = gen::random_variable_rows(301, 301, 7.0, 1.5, 3);
    const SellCSigmaMatrix sell(csr, c, sigma);
    EXPECT_EQ(sell.nnz(), csr.nnz());

    const auto x = random_vector(301, 1);
    auto y_csr = random_vector(301, 2);
    auto y_sell = y_csr;
    spmv_csr(csr, x, y_csr);
    spmv_sell(sell, x, y_sell);
    for (std::size_t i = 0; i < y_csr.size(); ++i)
        EXPECT_NEAR(y_sell[i], y_csr[i], 1e-12) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SellConversion,
    testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 1),
                    std::make_tuple(8, 8), std::make_tuple(8, 64),
                    std::make_tuple(16, 128), std::make_tuple(32, 32)));

TEST(Sell, PermutationIsValid) {
    const CsrMatrix csr = gen::random_variable_rows(100, 100, 5.0, 1.0, 7);
    const SellCSigmaMatrix sell(csr, 8, 32);
    std::vector<bool> seen(100, false);
    for (const auto p : sell.perm()) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, 100);
        EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
        seen[static_cast<std::size_t>(p)] = true;
    }
}

TEST(Sell, SigmaWindowsSortStablyByDescendingLength) {
    // One very long row in window 0 among short rows of five lengths:
    // each window must hold its own rows in stable descending order.
    CsrBuilder b(600, 1500);
    for (std::int64_t r = 0; r < 600; ++r) {
        const std::int64_t len = r == 3 ? 1200 : 1 + (r * 7) % 5;
        for (std::int64_t j = 0; j < len; ++j)
            b.push(r, static_cast<std::int32_t>(j), 1.0);
    }
    const CsrMatrix csr = std::move(b).finish();
    for (const std::int64_t sigma : {std::int64_t{8}, std::int64_t{256}}) {
        const SellGeometry g(csr, 8, sigma);
        const auto perm = g.perm();
        for (std::int64_t w = 0; w < 600; w += sigma) {
            const std::int64_t end = std::min<std::int64_t>(w + sigma, 600);
            for (std::int64_t p = w; p < end; ++p) {
                const auto row = perm[static_cast<std::size_t>(p)];
                ASSERT_GE(row, w);
                ASSERT_LT(row, end);
                EXPECT_EQ(g.row_lengths()[static_cast<std::size_t>(p)],
                          csr.row_nnz(row));
                if (p == w) continue;
                const auto prev = perm[static_cast<std::size_t>(p) - 1];
                const auto len = csr.row_nnz(row);
                const auto prev_len = csr.row_nnz(prev);
                EXPECT_TRUE(prev_len > len || (prev_len == len && prev < row))
                    << "sigma " << sigma << " position " << p;
            }
        }
    }
}

TEST(Sell, SigmaSortingReducesPadding) {
    // Skewed row lengths: without sorting (sigma = 1) chunks pad to their
    // longest member; sigma sorting groups similar lengths together.
    const CsrMatrix csr =
        gen::random_variable_rows(4096, 4096, 8.0, 2.0, 11);
    const SellCSigmaMatrix unsorted(csr, 32, 1);
    const SellCSigmaMatrix sorted(csr, 32, 512);
    EXPECT_GT(unsorted.padding_factor(), 1.05);
    EXPECT_LT(sorted.padding_factor(), unsorted.padding_factor());
}

TEST(Sell, UniformRowsNeedNoPadding) {
    const CsrMatrix csr = gen::random_uniform(256, 256, 12, 5);
    const SellCSigmaMatrix sell(csr, 8, 1);
    EXPECT_DOUBLE_EQ(sell.padding_factor(), 1.0);
    EXPECT_EQ(sell.padded_nnz(), csr.nnz());
}

TEST(Sell, ChunkGeometryConsistent) {
    const CsrMatrix csr = gen::random_variable_rows(100, 100, 6.0, 1.0, 9);
    const SellCSigmaMatrix sell(csr, 8, 8);
    EXPECT_EQ(sell.chunks(), (100 + 7) / 8);
    std::int64_t total = 0;
    for (std::int64_t k = 0; k < sell.chunks(); ++k) {
        EXPECT_EQ(sell.chunk_offset(k), total);
        total += sell.chunk_width(k) * 8;
    }
    EXPECT_EQ(total, sell.padded_nnz());
}

TEST(Sell, RowsNotMultipleOfChunkHeight) {
    const CsrMatrix csr = gen::stencil_2d_5pt(5, 5);  // 25 rows, C = 8
    const SellCSigmaMatrix sell(csr, 8, 1);
    const auto x = random_vector(25, 3);
    std::vector<double> y_csr(25, 0.0), y_sell(25, 0.0);
    spmv_csr(csr, x, y_csr);
    spmv_sell(sell, x, y_sell);
    for (std::size_t i = 0; i < 25; ++i)
        EXPECT_NEAR(y_sell[i], y_csr[i], 1e-12);
}

/// Ragged worst case: interleaved empty and long rows, so chunks mix
/// length-0 lanes with full lanes and every chunk carries padding.
CsrMatrix ragged_matrix(std::int64_t rows, std::int64_t cols) {
    CsrBuilder b(rows, cols);
    Xoshiro256 rng(29);
    for (std::int64_t r = 0; r < rows; ++r) {
        if (r % 3 == 0) continue;  // every third row has no nonzeros
        const std::int64_t len = r % 7 == 1 ? 19 : 1 + r % 4;
        std::int64_t col = static_cast<std::int64_t>(rng.uniform() *
                                                     static_cast<double>(
                                                         cols / 2));
        for (std::int64_t j = 0; j < len && col < cols; ++j) {
            b.push(r, static_cast<std::int32_t>(col),
                   rng.uniform(-1.0, 1.0));
            col += 1 + static_cast<std::int64_t>(rng.uniform() * 3.0);
        }
    }
    return std::move(b).finish();
}

class SellRagged : public testing::TestWithParam<
                       std::tuple<std::int64_t, std::int64_t, std::int64_t>> {
};

TEST_P(SellRagged, MatchesCsrWithEmptyRowsAndPartialChunks) {
    const auto [rows, c, sigma] = GetParam();
    const CsrMatrix csr = ragged_matrix(rows, rows);
    const SellCSigmaMatrix sell(csr, c, sigma);
    ASSERT_EQ(sell.nnz(), csr.nnz());
    // Zero-length rows pad their whole lane; the padding columns must be
    // harmless (they index an existing x entry with value 0).
    EXPECT_GE(sell.padding_factor(), 1.0);

    const auto x = random_vector(static_cast<std::size_t>(rows), 5);
    auto y_csr = random_vector(static_cast<std::size_t>(rows), 6);
    auto y_sell = y_csr;
    spmv_csr(csr, x, y_csr);
    spmv_sell(sell, x, y_sell);
    for (std::size_t i = 0; i < y_csr.size(); ++i)
        EXPECT_NEAR(y_sell[i], y_csr[i], 1e-12) << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SellRagged,
    testing::Values(
        // sigma not dividing rows, rows not a multiple of C
        std::make_tuple(std::int64_t{101}, std::int64_t{8}, std::int64_t{24}),
        // last chunk has a single row
        std::make_tuple(std::int64_t{65}, std::int64_t{8}, std::int64_t{8}),
        // C > rows: one partial chunk only
        std::make_tuple(std::int64_t{5}, std::int64_t{16}, std::int64_t{16}),
        // unsorted (sigma = 1) keeps original lane order
        std::make_tuple(std::int64_t{77}, std::int64_t{4}, std::int64_t{1})));

TEST(Sell, AllRowsEmpty) {
    CsrBuilder b(13, 13);
    const CsrMatrix csr = std::move(b).finish();
    const SellCSigmaMatrix sell(csr, 8, 8);
    EXPECT_EQ(sell.nnz(), 0);
    const auto x = random_vector(13, 8);
    std::vector<double> y(13, 1.5);
    spmv_sell(sell, x, y);
    for (const double v : y) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(Sell, PaddingLanesDoNotPerturbResults) {
    // A chunk whose rows differ wildly in length: the padded lanes of the
    // short rows must contribute exactly 0, even with a poisoned x.
    CsrBuilder b(8, 8);
    for (std::int32_t col = 0; col < 8; ++col)
        b.push(0, col, 1.0);                 // row 0: full
    b.push(3, 2, 4.0);                       // row 3: single entry
    const CsrMatrix csr = std::move(b).finish();
    const SellCSigmaMatrix sell(csr, 8, 1);
    EXPECT_GT(sell.padded_nnz(), csr.nnz());

    std::vector<double> x(8, 1e300);         // poison: padding that gathers
    std::vector<double> y(8, 0.0);           // a nonzero x would explode
    spmv_sell(sell, x, y);
    EXPECT_DOUBLE_EQ(y[0], 8.0 * 1e300);
    EXPECT_DOUBLE_EQ(y[3], 4.0 * 1e300);
    for (const std::size_t r : {1u, 2u, 4u, 5u, 6u, 7u})
        EXPECT_DOUBLE_EQ(y[r], 0.0) << "row " << r;
}

TEST(SellTrace, LengthFormulaHolds) {
    const CsrMatrix csr = gen::random_variable_rows(200, 200, 6.0, 1.0, 13);
    const SellCSigmaMatrix sell(csr, 8, 16);
    const SpmvLayout layout = sell_layout(sell, 256);
    std::uint64_t count = 0;
    generate_sell_trace(sell, layout, [&](const MemRef&) { ++count; });
    EXPECT_EQ(count,
              sell_trace_length(sell.rows(), sell.chunks(),
                                sell.padded_nnz()));
}

TEST(SellTrace, OnlyExpectedObjectsAppear) {
    const CsrMatrix csr = gen::stencil_2d_5pt(10, 10);
    const SellCSigmaMatrix sell(csr, 4, 1);
    const SpmvLayout layout = sell_layout(sell, 16);
    generate_sell_trace(sell, layout, [&](const MemRef& ref) {
        EXPECT_LT(ref.line, layout.total_lines());
        if (ref.is_write) {
            EXPECT_EQ(ref.object, DataObject::Y);
        }
    });
}

TEST(SellTrace, RunsThroughSimulator) {
    // End to end: SELL trace into the hierarchy; sector isolation of the
    // (padded) matrix data behaves exactly like the CSR case.
    const CsrMatrix csr = gen::random_uniform(2048, 2048, 64, 17);
    const SellCSigmaMatrix sell(csr, 8, 64);
    const SpmvLayout layout = sell_layout(sell, 256);

    A64fxConfig cfg;
    cfg.cores = 1;
    cfg.cores_per_numa = 1;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};
    // Prefetch off: this test isolates the sector semantics (the default
    // prefetch distance overshoots the scaled-down 128-set sectors).
    cfg.l1_prefetch.enabled = false;
    cfg.l2_prefetch.enabled = false;
    MemoryHierarchy baseline(cfg);
    MemoryHierarchy isolated(cfg);
    isolated.set_sector_ways(SectorWays{4, 0});

    for (int iteration = 0; iteration < 2; ++iteration) {
        if (iteration == 1) {
            baseline.reset_counters();
            isolated.reset_counters();
        }
        generate_sell_trace(sell, layout, [&](const MemRef& ref) {
            baseline.access(ref, SectorPolicy::IsolateMatrix);
            isolated.access(ref, SectorPolicy::IsolateMatrix);
        });
    }
    // Matrix data (2 MiB padded) streams either way; the vectors are
    // protected by the sector, so isolation cannot be worse.
    EXPECT_GT(baseline.l2_total().fills(), 0u);
    EXPECT_LE(isolated.l2_total().fills(), baseline.l2_total().fills());
}

}  // namespace
}  // namespace spmvcache
