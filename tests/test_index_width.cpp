// Index-width pipeline tests: the W32 bounds at their exact boundaries
// (synthetic shapes — no huge allocations), auto-narrowing and the typed
// forced-W32 rejection in the .mtx parser, width-mismatch `.spmvc` loads,
// width-aware model accounting, and a both-widths differential over the
// generator suite — predictions bit-identical under pinned accounting,
// kernel results fma-tolerant-identical, and the narrow cache entry
// measurably smaller on disk.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/engine.hpp"
#include "model/analytic.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/csr.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/index_width.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

// ---- Boundary corpus: pure shape checks, nothing is allocated ----------

TEST(IndexWidthBounds, RowsAndColsBoundAtInt32Max) {
    EXPECT_TRUE(width32_representable(kI32Max, 1, 1));
    EXPECT_TRUE(width32_representable(1, kI32Max, 1));
    EXPECT_FALSE(width32_representable(kI32Max + 1, 1, 1));
    EXPECT_FALSE(width32_representable(1, kI32Max + 1, 1));
}

TEST(IndexWidthBounds, NnzBoundAtUint32Max) {
    // rowptr is unsigned 32-bit, so nnz gets the full range — one more
    // than the signed row/col bound allows.
    EXPECT_TRUE(width32_representable(1, 1, kU32Max));
    EXPECT_FALSE(width32_representable(1, 1, kU32Max + 1));
    EXPECT_TRUE(width32_representable(kI32Max, kI32Max, kU32Max));
}

TEST(IndexWidthBounds, NegativeShapesNeverFit) {
    EXPECT_FALSE(width32_representable(-1, 1, 1));
    EXPECT_FALSE(width32_representable(1, -1, 1));
    EXPECT_FALSE(width32_representable(1, 1, -1));
}

TEST(IndexWidthBounds, ResolveAutoNarrowsExactlyWhenRepresentable) {
    const Result<IndexWidth> narrow =
        resolve_index_width(IndexWidthChoice::Auto, kI32Max, kI32Max, kU32Max);
    ASSERT_TRUE(narrow.ok());
    EXPECT_EQ(narrow.value(), IndexWidth::W32);

    const Result<IndexWidth> wide = resolve_index_width(
        IndexWidthChoice::Auto, kI32Max, kI32Max + 1, kU32Max);
    ASSERT_TRUE(wide.ok());
    EXPECT_EQ(wide.value(), IndexWidth::W64);
}

TEST(IndexWidthBounds, ForcedW32PastTheBoundIsUnsupported) {
    for (const auto& [rows, cols, nnz] :
         {std::tuple{kI32Max + 1, std::int64_t{1}, std::int64_t{1}},
          std::tuple{std::int64_t{1}, kI32Max + 1, std::int64_t{1}},
          std::tuple{std::int64_t{1}, std::int64_t{1}, kU32Max + 1}}) {
        const Result<IndexWidth> r =
            resolve_index_width(IndexWidthChoice::W32, rows, cols, nnz);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), ErrorCode::UnsupportedError);
    }
    // Forced W64 always succeeds on valid shapes, even tiny ones.
    const Result<IndexWidth> wide =
        resolve_index_width(IndexWidthChoice::W64, 2, 2, 2);
    ASSERT_TRUE(wide.ok());
    EXPECT_EQ(wide.value(), IndexWidth::W64);
}

TEST(IndexWidthBounds, ParseChoiceRoundTrips) {
    for (const IndexWidthChoice c :
         {IndexWidthChoice::Auto, IndexWidthChoice::W32,
          IndexWidthChoice::W64}) {
        const Result<IndexWidthChoice> parsed =
            parse_index_width_choice(to_string(c));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), c);
    }
    EXPECT_EQ(parse_index_width_choice("16").code(),
              ErrorCode::ValidationError);
}

// ---- Parser: auto-fallback and the typed forced-W32 rejection ----------

/// A 1-by-3e9 matrix: one entry, but the column space is past INT32_MAX.
/// Cheap to parse (one row, one nonzero) while being W32-unrepresentable.
std::string huge_cols_mtx() {
    return "%%MatrixMarket matrix coordinate real general\n"
           "1 3000000000 1\n"
           "1 2500000000 1.5\n";
}

TEST(IndexWidthParse, AutoFallsBackToW64OnHugeColumnSpace) {
    std::istringstream in(huge_cols_mtx());
    // Explicit Auto: the build default may be pinned to a forced width
    // (cmake SPMV_DEFAULT_INDEX_WIDTH) and this test is about fallback.
    MmReadOptions options;
    options.index_width = IndexWidthChoice::Auto;
    const Result<AnyCsrMatrix> m = try_read_matrix_market_any(in, options);
    ASSERT_TRUE(m.ok()) << m.error().render();
    EXPECT_EQ(m.value().view().index_width(), IndexWidth::W64);
    const AnyCsrView v = m.value().view();
    ASSERT_NE(v.as64(), nullptr);
    EXPECT_EQ(v.as64()->colidx()[0], 2499999999);  // 0-based
}

TEST(IndexWidthParse, ForcedW32OnHugeColumnSpaceIsUnsupported) {
    std::istringstream in(huge_cols_mtx());
    MmReadOptions options;
    options.index_width = IndexWidthChoice::W32;
    const Result<AnyCsrMatrix> m = try_read_matrix_market_any(in, options);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.code(), ErrorCode::UnsupportedError);
}

TEST(IndexWidthParse, ForcedW64OnSmallMatrixWidens) {
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n");
    MmReadOptions options;
    options.index_width = IndexWidthChoice::W64;
    const Result<AnyCsrMatrix> m = try_read_matrix_market_any(in, options);
    ASSERT_TRUE(m.ok()) << m.error().render();
    EXPECT_EQ(m.value().view().index_width(), IndexWidth::W64);
}

// ---- .spmvc: width-mismatch rejection and the narrow-entry payoff ------

class IndexWidthCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(testing::TempDir()) /
               ("spmv_width_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    /// Writes `m` (either width, via the AnyCsrView conversion) as a
    /// synthetic-origin entry; returns the path.
    std::string write_entry(const AnyCsrView& m, const std::string& name) {
        const std::string path = (dir_ / (name + ".spmvc")).string();
        const Status written =
            write_binary_cache(path, m, fingerprint_matrix(m),
                               compute_stats(m), "synthetic://" + name,
                               SourceStamp{});
        EXPECT_TRUE(written.ok()) << written.error().render();
        return path;
    }

    fs::path dir_;
};

TEST_F(IndexWidthCacheTest, ForcedWidthRejectsTheOtherWidthsEntry) {
    const CsrMatrix m32 = gen::stencil_2d_5pt(20, 20);
    const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
    const std::string p32 = write_entry(CsrView(m32), "narrow");
    const std::string p64 = write_entry(CsrView64(m64), "wide");

    // Auto maps whichever width the file stores.
    const Result<MappedCsr> any32 = load_binary_cache(p32);
    ASSERT_TRUE(any32.ok()) << any32.error().render();
    EXPECT_EQ(any32.value().view().index_width(), IndexWidth::W32);
    const Result<MappedCsr> any64 = load_binary_cache(p64);
    ASSERT_TRUE(any64.ok()) << any64.error().render();
    EXPECT_EQ(any64.value().view().index_width(), IndexWidth::W64);

    // A forced width rejects the other with the typed miss error.
    const Result<MappedCsr> want64 =
        load_binary_cache(p32, nullptr, IndexWidthChoice::W64);
    ASSERT_FALSE(want64.ok());
    EXPECT_EQ(want64.code(), ErrorCode::UnsupportedError);
    const Result<MappedCsr> want32 =
        load_binary_cache(p64, nullptr, IndexWidthChoice::W32);
    ASSERT_FALSE(want32.ok());
    EXPECT_EQ(want32.code(), ErrorCode::UnsupportedError);

    // And the matching force still maps.
    const Result<MappedCsr> match =
        load_binary_cache(p32, nullptr, IndexWidthChoice::W32);
    EXPECT_TRUE(match.ok()) << match.error().render();
}

TEST_F(IndexWidthCacheTest, NarrowEntryIsSubstantiallySmaller) {
    // Large enough that array bytes dominate the section alignment
    // padding (sections are page-aligned in the entry).
    const CsrMatrix m32 = gen::random_uniform(2000, 2000, 16, /*seed=*/7);
    const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
    const auto s32 = fs::file_size(write_entry(CsrView(m32), "narrow"));
    const auto s64 = fs::file_size(write_entry(CsrView64(m64), "wide"));
    // 12 index bytes/nnz (amortised) -> 24: the entry loses well over a
    // fifth of its bytes; the asymptotic ratio is 2/3.
    EXPECT_LT(static_cast<double>(s32), 0.8 * static_cast<double>(s64));
}

// ---- Width-aware accounting ------------------------------------------

TEST(IndexWidthAccounting, DefaultFollowsPhysicalWidthPinOverrides) {
    const ModelOptions follow;  // paper_accounting = false
    EXPECT_EQ(follow.colidx_bytes_for(IndexWidth::W32), 4u);
    EXPECT_EQ(follow.rowptr_bytes_for(IndexWidth::W32), 4u);
    EXPECT_EQ(follow.colidx_bytes_for(IndexWidth::W64), 8u);
    EXPECT_EQ(follow.rowptr_bytes_for(IndexWidth::W64), 8u);

    ModelOptions paper;  // the paper's fixed accounting
    paper.paper_accounting = true;
    for (const IndexWidth w : {IndexWidth::W32, IndexWidth::W64}) {
        EXPECT_EQ(paper.colidx_bytes_for(w), 4u);
        EXPECT_EQ(paper.rowptr_bytes_for(w), 8u);
    }
}

TEST(IndexWidthAccounting, StreamingTermsScaleWithIndexBytes) {
    // rows + 1 and nnz divide the line size so the ceilings are exact
    // and the wide terms are exactly double the narrow ones.
    const std::int64_t rows = (1 << 14) - 1, nnz = 1 << 18;
    const StreamingMisses narrow = streaming_misses(rows, nnz, 256, 4, 4);
    const StreamingMisses wide = streaming_misses(rows, nnz, 256, 8, 8);
    EXPECT_EQ(wide.colidx, 2 * narrow.colidx);
    EXPECT_EQ(wide.rowptr, 2 * narrow.rowptr);
    // a and y stream 8-byte doubles regardless of the index width.
    EXPECT_EQ(wide.values, narrow.values);
    EXPECT_EQ(wide.y, narrow.y);
}

TEST(IndexWidthAccounting, ScalingFactorsShrinkAtNarrowRowptr) {
    const std::int64_t rows = 1 << 12, nnz = 1 << 16;
    // s1 = ((8+rp)*M/K + 8)/8 and s2 adds (16+ci)/8 per nonzero: both
    // strictly shrink when the index arrays narrow.
    EXPECT_LT(scaling_factor_partitioned(rows, nnz, 4),
              scaling_factor_partitioned(rows, nnz, 8));
    EXPECT_LT(scaling_factor_unpartitioned(rows, nnz, 4, 4),
              scaling_factor_unpartitioned(rows, nnz, 4, 8));
    // At the paper's defaults the closed forms of §3.2.2 hold exactly.
    const double m_over_k =
        static_cast<double>(rows) / static_cast<double>(nnz);
    EXPECT_DOUBLE_EQ(scaling_factor_partitioned(rows, nnz),
                     (16.0 * m_over_k + 8.0) / 8.0);
    EXPECT_DOUBLE_EQ(scaling_factor_unpartitioned(rows, nnz),
                     (16.0 * m_over_k + 20.0) / 8.0);
}

// ---- Both-widths differential over the generator suite ----------------

struct DiffCase {
    const char* name;
    std::function<CsrMatrix()> make;
};

std::vector<DiffCase> differential_suite() {
    return {
        {"stencil_2d_5pt", [] { return gen::stencil_2d_5pt(40, 40); }},
        {"banded", [] { return gen::banded(1800, 9, 24, /*seed=*/11); }},
        {"random_uniform",
         [] { return gen::random_uniform(700, 700, 6, /*seed=*/3); }},
        {"random_variable_rows",
         [] {
             return gen::random_variable_rows(900, 900, 7.0, /*cv=*/1.2,
                                              /*seed=*/5);
         }},
    };
}

/// Pinned paper accounting: the model must charge both storage widths
/// identically, so every derived number agrees bit for bit.
ModelOptions pinned_options() {
    ModelOptions options;
    options.threads = 2;
    options.l2_way_options = {4};
    options.jobs = 1;
    options.paper_accounting = true;
    return options;
}

void expect_results_bit_identical(const ModelResult& narrow,
                                  const ModelResult& wide,
                                  const char* name) {
    ASSERT_EQ(narrow.configs.size(), wide.configs.size()) << name;
    for (std::size_t i = 0; i < narrow.configs.size(); ++i) {
        EXPECT_EQ(narrow.configs[i].l2_sector_ways,
                  wide.configs[i].l2_sector_ways)
            << name;
        // EXPECT_EQ on doubles is exact comparison — bit-identical is
        // the contract, not "close".
        EXPECT_EQ(narrow.configs[i].l2_misses, wide.configs[i].l2_misses)
            << name << " config " << i;
        EXPECT_EQ(narrow.configs[i].l2_x_misses,
                  wide.configs[i].l2_x_misses)
            << name << " config " << i;
    }
    EXPECT_EQ(narrow.l1_misses, wide.l1_misses) << name;
    EXPECT_EQ(narrow.l1_x_misses, wide.l1_x_misses) << name;
    EXPECT_EQ(narrow.x_traffic_fraction, wide.x_traffic_fraction) << name;
}

TEST(IndexWidthDifferential, MethodBPredictionsBitIdenticalAcrossWidths) {
    const ModelOptions options = pinned_options();
    for (const DiffCase& c : differential_suite()) {
        const CsrMatrix m32 = c.make();
        const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
        const ModelResult narrow = run_method_b(CsrView(m32), options);
        const ModelResult wide = run_method_b(CsrView64(m64), options);
        expect_results_bit_identical(narrow, wide, c.name);
    }
}

TEST(IndexWidthDifferential, MethodAPredictionsBitIdenticalAcrossWidths) {
    const ModelOptions options = pinned_options();
    // Method (A) shares the trace/engine machinery; two pattern classes
    // cover the structured and the scattered regime.
    for (const DiffCase& c :
         {differential_suite()[0], differential_suite()[2]}) {
        const CsrMatrix m32 = c.make();
        const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
        const ModelResult narrow = run_method_a(CsrView(m32), options);
        const ModelResult wide = run_method_a(CsrView64(m64), options);
        expect_results_bit_identical(narrow, wide, c.name);
    }
}

TEST(IndexWidthDifferential, UnpinnedAccountingChargesNarrowerRowptr) {
    // Sanity that the pin matters: with accounting following the physical
    // width, the W32 run charges 4-byte rowptr lines and must predict
    // strictly fewer unpartitioned L2 misses on a rowptr-heavy matrix.
    ModelOptions options = pinned_options();
    options.paper_accounting = false;
    // Shrink L2 so the working set genuinely misses: with the full 8 MiB
    // a test-sized matrix is cache-resident and both widths predict 0.
    options.machine.l2 = CacheConfig{64 * 1024, 256, 16, 0};
    const CsrMatrix m32 = gen::random_variable_rows(4000, 4000, 3.0,
                                                    /*cv=*/0.5, /*seed=*/9);
    const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
    const ModelResult narrow = run_method_b(CsrView(m32), options);
    const ModelResult wide = run_method_b(CsrView64(m64), options);
    ASSERT_FALSE(narrow.configs.empty());
    ASSERT_FALSE(wide.configs.empty());
    EXPECT_LT(narrow.configs[0].l2_misses, wide.configs[0].l2_misses);
}

TEST(IndexWidthDifferential, KernelResultsFmaTolerantIdentical) {
    for (const DiffCase& c : differential_suite()) {
        const CsrMatrix m32 = c.make();
        const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
        std::vector<double> x(static_cast<std::size_t>(m32.cols()));
        for (std::size_t j = 0; j < x.size(); ++j)
            x[j] = 0.25 + static_cast<double>(j % 17) * 0.125;
        std::vector<double> y32(static_cast<std::size_t>(m32.rows()), 0.0);
        std::vector<double> y64(y32.size(), 0.0);

        for (const KernelVariant variant :
             {KernelVariant::CsrScalar, KernelVariant::CsrSimd,
              KernelVariant::SellSimd, KernelVariant::CsrMerge}) {
            EngineOptions options;
            options.threads = 2;
            options.variant = variant;
            KernelEngine narrow(CsrView(m32), options);
            KernelEngine64 wide(CsrView64(m64), options);
            narrow.run(x, y32);
            wide.run(x, y64);
            for (std::size_t i = 0; i < y32.size(); ++i) {
                const double scale = std::max(
                    {std::abs(y32[i]), std::abs(y64[i]), 1.0});
                EXPECT_LE(std::abs(y32[i] - y64[i]), 1e-10 * scale)
                    << c.name << " variant "
                    << to_string(variant) << " row " << i;
            }
        }
    }
}

TEST(IndexWidthDifferential, PatternStatsAgreeByteSizesDiffer) {
    const CsrMatrix m32 = gen::stencil_2d_5pt(30, 30);
    const CsrMatrix64 m64 = convert_csr_width<Idx64>(CsrView(m32));
    const MatrixStats narrow = compute_stats(CsrView(m32));
    const MatrixStats wide = compute_stats(CsrView64(m64));
    EXPECT_EQ(narrow.rows, wide.rows);
    EXPECT_EQ(narrow.nnz, wide.nnz);
    EXPECT_EQ(narrow.mean_nnz_per_row, wide.mean_nnz_per_row);
    EXPECT_EQ(narrow.cv_nnz_per_row, wide.cv_nnz_per_row);
    EXPECT_EQ(narrow.bandwidth, wide.bandwidth);
    EXPECT_EQ(narrow.index_width, IndexWidth::W32);
    EXPECT_EQ(wide.index_width, IndexWidth::W64);
    EXPECT_TRUE(narrow.width32_ok);
    EXPECT_TRUE(wide.width32_ok);  // the shape fits even if storage is wide
    const std::uint64_t nnz = static_cast<std::uint64_t>(m32.nnz());
    const std::uint64_t rowptr32 = 4 * (static_cast<std::uint64_t>(m32.rows()) + 1);
    const std::uint64_t rowptr64 = 2 * rowptr32;
    EXPECT_EQ(narrow.matrix_bytes, 12 * nnz + rowptr32);
    EXPECT_EQ(wide.matrix_bytes, 16 * nnz + rowptr64);
}

}  // namespace
}  // namespace spmvcache
