// Unit tests for src/sparse: COO assembly, CSR invariants, Matrix Market
// I/O, matrix statistics, row partitioning.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "sparse/any_csr.hpp"
#include "sparse/coo.hpp"
#include "sparse/gen/suite.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/index_width.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/matrix_stats.hpp"
#include "sparse/partition.hpp"
#include "util/error.hpp"

namespace spmvcache {
namespace {

CsrMatrix small_matrix() {
    // The 4x4, 7-nonzero example of Fig. 1a:
    // row 0: cols 1,2;  row 1: col 0;  row 2: cols 2,3;  row 3: cols 1,3.
    CooMatrix coo(4, 4);
    coo.add(0, 1, 1.0);
    coo.add(0, 2, 2.0);
    coo.add(1, 0, 3.0);
    coo.add(2, 2, 4.0);
    coo.add(2, 3, 5.0);
    coo.add(3, 1, 6.0);
    coo.add(3, 3, 7.0);
    return std::move(coo).to_csr();
}

TEST(Coo, ConvertsToCsrSorted) {
    CooMatrix coo(3, 3);
    coo.add(2, 1, 1.0);
    coo.add(0, 2, 2.0);
    coo.add(0, 0, 3.0);
    const CsrMatrix m = std::move(coo).to_csr();
    m.validate();
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.rowptr()[0], 0);
    EXPECT_EQ(m.rowptr()[1], 2);
    EXPECT_EQ(m.colidx()[0], 0);
    EXPECT_EQ(m.colidx()[1], 2);
    EXPECT_DOUBLE_EQ(m.values()[0], 3.0);
}

TEST(Coo, CombinesDuplicates) {
    CooMatrix coo(2, 2);
    coo.add(1, 1, 1.5);
    coo.add(1, 1, 2.5);
    const CsrMatrix m = std::move(coo).to_csr();
    EXPECT_EQ(m.nnz(), 1);
    EXPECT_DOUBLE_EQ(m.values()[0], 4.0);
}

TEST(Coo, DuplicatesSumInInsertionOrder) {
    // (1e16 + -1e16) + 1 is exactly 1; adding 1 to either large value
    // first loses it. Row 1 lists its columns in descending order with
    // the three entries at column 5 spread across it, so sorting all
    // entries at once would be free to reorder them.
    CooMatrix coo(2, 64);
    coo.add(1, 5, 1e16);
    for (std::int64_t c = 63; c >= 0; --c) {
        if (c == 31) coo.add(1, 5, -1e16);
        if (c != 5) coo.add(1, c, 1.0);
        coo.add(0, c, 2.0);
    }
    coo.add(1, 5, 1.0);
    const CsrMatrix m = std::move(coo).to_csr();
    m.validate();
    ASSERT_EQ(m.nnz(), 128);
    EXPECT_EQ(m.colidx()[64 + 5], 5);
    EXPECT_EQ(m.values()[64 + 5], 1.0);
}

TEST(Coo, RejectsOutOfRange) {
    CooMatrix coo(2, 2);
    EXPECT_THROW(coo.add(2, 0, 1.0), ContractViolation);
    EXPECT_THROW(coo.add(0, -1, 1.0), ContractViolation);
}

TEST(CsrBuilder, HandlesEmptyRows) {
    CsrBuilder b(5, 5);
    b.push(1, 2, 1.0);
    b.push(3, 0, 2.0);
    b.push(3, 4, 3.0);
    const CsrMatrix m = std::move(b).finish();
    m.validate();
    EXPECT_EQ(m.row_nnz(0), 0);
    EXPECT_EQ(m.row_nnz(1), 1);
    EXPECT_EQ(m.row_nnz(2), 0);
    EXPECT_EQ(m.row_nnz(3), 2);
    EXPECT_EQ(m.row_nnz(4), 0);
}

TEST(CsrBuilder, RejectsUnsortedColumns) {
    CsrBuilder b(2, 4);
    b.push(0, 2, 1.0);
    EXPECT_THROW(b.push(0, 1, 1.0), ContractViolation);
}

TEST(CsrBuilder, RejectsBackwardRows) {
    CsrBuilder b(3, 3);
    b.push(2, 0, 1.0);
    EXPECT_THROW(b.push(1, 0, 1.0), ContractViolation);
}

TEST(Csr, ByteSizesFollowPhysicalWidth) {
    const CsrMatrix m = small_matrix();
    // Narrow storage: 8-byte values, 4-byte colidx, 4-byte rowptr (M+1
    // entries). The paper's (4, 8) accounting is SpmvLayout's default,
    // independent of these physical sizes.
    EXPECT_EQ(m.values_bytes(), 7u * 8);
    EXPECT_EQ(m.colidx_bytes(), 7u * 4);
    EXPECT_EQ(m.rowptr_bytes(), 5u * 4);
    EXPECT_EQ(m.x_bytes(), 4u * 8);
    EXPECT_EQ(m.y_bytes(), 4u * 8);
    EXPECT_EQ(m.working_set_bytes(),
              m.values_bytes() + m.colidx_bytes() + m.rowptr_bytes() +
                  m.x_bytes() + m.y_bytes());

    const CsrMatrix64 w = convert_csr_width<Idx64>(CsrView(m));
    EXPECT_EQ(w.values_bytes(), 7u * 8);
    EXPECT_EQ(w.colidx_bytes(), 7u * 8);
    EXPECT_EQ(w.rowptr_bytes(), 5u * 8);
}

TEST(Csr, PermutedSymmetricPreservesEntries) {
    const CsrMatrix m = small_matrix();
    const std::vector<std::int32_t> perm = {2, 0, 3, 1};  // new -> old
    const CsrMatrix p = m.permuted_symmetric(perm);
    p.validate();
    EXPECT_EQ(p.nnz(), m.nnz());
    // Entry (0,1)=1.0 in m maps to (new_of(0), new_of(1)) = (1, 3).
    const auto dense_m = to_dense(m);
    const auto dense_p = to_dense(p);
    std::vector<std::int32_t> new_of(4);
    for (int n = 0; n < 4; ++n) new_of[static_cast<std::size_t>(perm[n])] = n;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(
                dense_p[static_cast<std::size_t>(new_of[r]) * 4 +
                        static_cast<std::size_t>(new_of[c])],
                dense_m[static_cast<std::size_t>(r) * 4 +
                        static_cast<std::size_t>(c)]);
}

/// Copies and moves of `m` at its width: a copy views arrays of its own,
/// a move keeps the buffers and leaves the source an empty 0 x 0 matrix.
template <class Idx>
void expect_owners_view_own_arrays(const BasicCsrMatrix<Idx>& m) {
    using Matrix = BasicCsrMatrix<Idx>;
    const std::vector<double> dense = to_dense(m);
    const auto expect_emptied = [](const Matrix& moved) {
        EXPECT_EQ(moved.rows(), 0);
        EXPECT_EQ(moved.cols(), 0);
        EXPECT_EQ(moved.nnz(), 0);
        EXPECT_TRUE(moved.rowptr().empty());
        EXPECT_TRUE(moved.colidx().empty());
        EXPECT_TRUE(moved.values().empty());
    };

    auto source = std::make_unique<Matrix>(m);
    Matrix copied(*source);
    Matrix assigned;
    assigned = *source;
    for (const Matrix* copy : {&copied, &assigned}) {
        EXPECT_NE(copy->rowptr().data(), source->rowptr().data());
        EXPECT_NE(copy->colidx().data(), source->colidx().data());
        EXPECT_NE(copy->values().data(), source->values().data());
    }
    source.reset();
    EXPECT_EQ(to_dense(copied), dense);
    EXPECT_EQ(to_dense(assigned), dense);

    Matrix from = copied;
    const double* buffer = from.values().data();
    const Matrix moved(std::move(from));
    EXPECT_EQ(moved.values().data(), buffer);
    EXPECT_EQ(to_dense(moved), dense);
    // The moved-from state is the class's documented contract under test.
    // cppcheck-suppress accessMoved
    expect_emptied(from);

    Matrix target = copied;
    Matrix other = copied;
    buffer = other.values().data();
    target = std::move(other);
    EXPECT_EQ(target.values().data(), buffer);
    EXPECT_EQ(to_dense(target), dense);
    // cppcheck-suppress accessMoved
    expect_emptied(other);
}

TEST(Csr, CopiesAndMovesViewTheirOwnArrays) {
    const CsrMatrix m = small_matrix();
    expect_owners_view_own_arrays(m);
    expect_owners_view_own_arrays(convert_csr_width<Idx64>(m));
}

TEST(MatrixMarket, RoundTripsGeneral) {
    const CsrMatrix m = small_matrix();
    std::stringstream ss;
    write_matrix_market(ss, m);
    const CsrMatrix back = read_matrix_market(ss);
    back.validate();
    EXPECT_EQ(back.rows(), m.rows());
    EXPECT_EQ(back.nnz(), m.nnz());
    EXPECT_EQ(to_dense(back), to_dense(m));
}

TEST(MatrixMarket, ExpandsSymmetric) {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% comment\n"
        "3 3 3\n"
        "1 1 2.0\n"
        "2 1 -1.0\n"
        "3 2 -1.0\n");
    const CsrMatrix m = read_matrix_market(ss);
    m.validate();
    EXPECT_EQ(m.nnz(), 5);  // diagonal once, off-diagonals mirrored
    const auto dense = to_dense(m);
    EXPECT_DOUBLE_EQ(dense[0 * 3 + 1], -1.0);
    EXPECT_DOUBLE_EQ(dense[1 * 3 + 0], -1.0);
}

TEST(MatrixMarket, ReadsPatternAsOnes) {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n");
    const CsrMatrix m = read_matrix_market(ss);
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_DOUBLE_EQ(m.values()[0], 1.0);
}

TEST(MatrixMarket, RejectsComplexField) {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n"
        "1 1 1.0 0.0\n");
    EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedStream) {
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(MatrixStats, ComputesPaperQuantities) {
    const CsrMatrix m = small_matrix();
    const MatrixStats s = compute_stats(m);
    EXPECT_EQ(s.rows, 4);
    EXPECT_EQ(s.nnz, 7);
    EXPECT_DOUBLE_EQ(s.mean_nnz_per_row, 7.0 / 4.0);  // mu_K
    EXPECT_GT(s.cv_nnz_per_row, 0.0);
    EXPECT_EQ(s.max_nnz_per_row, 2);
    EXPECT_EQ(s.empty_rows, 0);
    EXPECT_EQ(s.bandwidth, 2);  // entry (3,1)
}

TEST(MatrixStats, CvZeroForUniformRows) {
    CsrBuilder b(3, 3);
    for (int r = 0; r < 3; ++r) b.push(r, static_cast<std::int32_t>(r), 1.0);
    const auto s = compute_stats(std::move(b).finish());
    EXPECT_DOUBLE_EQ(s.cv_nnz_per_row, 0.0);
}

TEST(Partition, BalancedRowsMatchesOpenMpStatic) {
    const CsrMatrix m = small_matrix();
    const RowPartition p(m, 3, PartitionPolicy::BalancedRows);
    // ceil(4/3) = 2 rows per thread: [0,2), [2,4), [4,4).
    EXPECT_EQ(p.range(0), (RowRange{0, 2}));
    EXPECT_EQ(p.range(1), (RowRange{2, 4}));
    EXPECT_EQ(p.range(2), (RowRange{4, 4}));
}

TEST(Partition, RangesCoverAllRowsExactlyOnce) {
    const CsrMatrix m = small_matrix();
    for (const auto policy :
         {PartitionPolicy::BalancedRows, PartitionPolicy::BalancedNonzeros}) {
        for (std::int64_t threads : {1, 2, 3, 4, 7}) {
            const RowPartition p(m, threads, policy);
            std::int64_t covered = 0;
            std::int64_t expected_begin = 0;
            for (const auto& range : p.ranges()) {
                EXPECT_EQ(range.begin, expected_begin);
                EXPECT_LE(range.begin, range.end);
                covered += range.size();
                expected_begin = range.end;
            }
            EXPECT_EQ(covered, m.rows());
        }
    }
}

TEST(Partition, BalancedNonzerosEvensOutSkewedRows) {
    // One dense row of 90 nonzeros plus 30 single-entry rows.
    CsrBuilder b(31, 128);
    for (int c = 0; c < 90; ++c) b.push(0, c, 1.0);
    for (int r = 1; r <= 30; ++r) b.push(r, 0, 1.0);
    const CsrMatrix m = std::move(b).finish();

    const RowPartition rows(m, 2, PartitionPolicy::BalancedRows);
    const RowPartition nnz(m, 2, PartitionPolicy::BalancedNonzeros);
    EXPECT_GT(rows.imbalance(m), 1.4);
    EXPECT_LT(nnz.imbalance(m), rows.imbalance(m));
}

TEST(MatrixMarket, SuiteReadsDirectory) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "spmv_mm_suite";
    fs::create_directories(dir);
    write_matrix_market_file((dir / "b_second.mtx").string(),
                             small_matrix());
    write_matrix_market_file((dir / "a_first.mtx").string(), small_matrix());
    {
        std::ofstream ignored(dir / "notes.txt");
        ignored << "not a matrix\n";
    }
    const auto suite = gen::matrix_market_suite(dir.string());
    ASSERT_EQ(suite.size(), 2u);  // .txt ignored
    EXPECT_EQ(suite[0].name, "a_first");
    EXPECT_EQ(suite[1].name, "b_second");
    const CsrMatrix loaded = suite[0].factory();
    EXPECT_EQ(loaded.nnz(), small_matrix().nnz());
    fs::remove_all(dir);
}

TEST(Csr, PermutedSymmetricRejectsNonSquare) {
    CsrBuilder b(2, 3);
    b.push(0, 1, 1.0);
    const CsrMatrix m = std::move(b).finish();
    const std::vector<std::int32_t> perm = {0, 1};
    EXPECT_THROW((void)m.permuted_symmetric(perm), ContractViolation);
}

TEST(Partition, MoreThreadsThanRows) {
    const CsrMatrix m = small_matrix();  // 4 rows
    const RowPartition p(m, 9, PartitionPolicy::BalancedRows);
    std::int64_t covered = 0;
    for (const auto& range : p.ranges()) covered += range.size();
    EXPECT_EQ(covered, 4);
    // Later threads get empty ranges, never negative ones.
    for (const auto& range : p.ranges()) EXPECT_GE(range.size(), 0);
}

TEST(Partition, ImbalanceIsOneForUniformMatrix) {
    CsrBuilder b(8, 8);
    for (int r = 0; r < 8; ++r) b.push(r, static_cast<std::int32_t>(r), 1.0);
    const CsrMatrix m = std::move(b).finish();
    const RowPartition p(m, 4, PartitionPolicy::BalancedRows);
    EXPECT_DOUBLE_EQ(p.imbalance(m), 1.0);
}

// ---------------------------------------------------------------------------
// Typed-result parser: hardened paths and the malformed-input corpus.

Result<AnyCsrMatrix> parse(const std::string& text, bool strict = false) {
    std::stringstream ss(text);
    return try_read_matrix_market_any(
        ss, {.strict = strict, .index_width = IndexWidthChoice::W32});
}

TEST(MatrixMarketHardened, TypedReadSucceedsOnValidInput) {
    std::stringstream ss;
    write_matrix_market(ss, small_matrix());
    const Result<AnyCsrMatrix> r = try_read_matrix_market_any(ss);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().view().nnz(), 7);
}

TEST(MatrixMarketHardened, SizeLineTrailingGarbageRejectedInBothModes) {
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2 surprise\n"
        "1 1 1.0\n"
        "2 2 2.0\n";
    for (const bool strict : {false, true}) {
        const Result<AnyCsrMatrix> r = parse(text, strict);
        ASSERT_FALSE(r.ok()) << "strict=" << strict;
        EXPECT_EQ(r.code(), ErrorCode::ParseError);
        EXPECT_EQ(r.error().line, 2);
    }
}

TEST(MatrixMarketHardened, NnzExceedingCellCountRejected) {
    const Result<AnyCsrMatrix> r = parse(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 7\n"
        "1 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ValidationError);
    EXPECT_EQ(r.error().line, 2);
    EXPECT_NE(r.error().message.find("exceeds"), std::string::npos);
}

TEST(MatrixMarketHardened, DimensionOverflowIsTypedNotUb) {
    // rows*cols overflows int64 but each factor parses fine.
    const Result<AnyCsrMatrix> r = parse(
        "%%MatrixMarket matrix coordinate real general\n"
        "9223372036854775 2000000000 10\n"
        "1 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::OverflowError);
    EXPECT_EQ(r.error().line, 2);
}

TEST(MatrixMarketHardened, UnaddressableVectorIsRefusedAtTheSizeLine) {
    // rows*cols fits int64, but x (8 bytes per column) does not: the
    // shape is refused before any entry is read.
    const Result<AnyCsrMatrix> wide_x = parse(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2305843009213694052 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n");
    ASSERT_FALSE(wide_x.ok());
    EXPECT_EQ(wide_x.code(), ErrorCode::OverflowError);
    EXPECT_EQ(wide_x.error().line, 2);
    EXPECT_NE(wide_x.error().message.find("x of"), std::string::npos);

    // x and y fit on their own; their sum with the arrays does not.
    const Result<AnyCsrMatrix> sum = parse(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1152921504606846975 1\n"
        "1 1 1.0\n");
    ASSERT_FALSE(sum.ok());
    EXPECT_EQ(sum.code(), ErrorCode::OverflowError);
    EXPECT_NE(sum.error().message.find("working set"), std::string::npos);
}

TEST(Csr, ByteSizesAreOverflowChecked) {
    EXPECT_EQ(checked_working_set_bytes(4, 4, 7, IndexWidth::W32).value(),
              7 * 8 + 7 * 4 + 5 * 4 + 4 * 8 + 4 * 8);
    EXPECT_EQ(checked_working_set_bytes(4, 4, 7, IndexWidth::W64).value(),
              7 * 8 + 7 * 8 + 5 * 8 + 4 * 8 + 4 * 8);
    EXPECT_EQ(checked_working_set_bytes(2, 2305843009213694052, 2,
                                        IndexWidth::W64)
                  .code(),
              ErrorCode::OverflowError);

    // A view whose x byte count wraps throws instead of answering.
    const std::vector<std::uint32_t> rowptr = {0, 0, 0};
    const CsrView v(2, 2305843009213694052, rowptr, {}, {});
    EXPECT_EQ(v.y_bytes(), 16u);
    EXPECT_THROW((void)v.x_bytes(), ContractViolation);
    EXPECT_THROW((void)v.working_set_bytes(), ContractViolation);
    EXPECT_THROW((void)AnyCsrView(v).working_set_bytes(), ContractViolation);
}

TEST(MatrixMarketHardened, DuplicatesCombinedLenientlyRejectedStrictly) {
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.5\n"
        "2 2 2.0\n"
        "1 1 0.5\n";
    const Result<AnyCsrMatrix> lenient = parse(text, /*strict=*/false);
    ASSERT_TRUE(lenient.ok());
    EXPECT_EQ(lenient.value().view().nnz(), 2);  // duplicates summed
    EXPECT_DOUBLE_EQ(to_dense(*lenient.value().view().as32())[0], 2.0);

    const Result<AnyCsrMatrix> strict = parse(text, /*strict=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.code(), ErrorCode::ValidationError);
    EXPECT_EQ(strict.error().line, 5);  // the duplicate, not the original
}

TEST(MatrixMarketHardened, StrictRejectsEntryTrailingGarbage) {
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0 extra\n";
    EXPECT_TRUE(parse(text, /*strict=*/false).ok());
    const Result<AnyCsrMatrix> strict = parse(text, /*strict=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.code(), ErrorCode::ParseError);
    EXPECT_EQ(strict.error().line, 3);
}

TEST(MatrixMarketHardened, StrictRejectsDataAfterFinalEntry) {
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n"
        "2 2 9.0\n";
    EXPECT_TRUE(parse(text, /*strict=*/false).ok());
    const Result<AnyCsrMatrix> strict = parse(text, /*strict=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.code(), ErrorCode::ParseError);
    EXPECT_EQ(strict.error().line, 4);
}

TEST(MatrixMarketHardened, OverlongLineRejectedNotBuffered) {
    MmReadOptions options;
    options.max_line_bytes = 64;
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n" +
                         std::string(1000, 'x') + "\n");
    const Result<AnyCsrMatrix> r = try_read_matrix_market_any(ss, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ParseError);
    EXPECT_NE(r.error().message.find("exceeds maximum length"),
              std::string::npos);
}

TEST(MatrixMarketHardened, SymmetricNonSquareRejected) {
    const Result<AnyCsrMatrix> r = parse(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 3 1\n"
        "1 1 1.0\n");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ValidationError);
    EXPECT_EQ(r.error().line, 2);
}

TEST(MatrixMarketHardened, MissingFileIsResourceErrorWithPathContext) {
    const Result<AnyCsrMatrix> r =
        try_read_matrix_market_any_file("/definitely/not/here.mtx");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::ResourceError);
    EXPECT_NE(r.error().render().find("/definitely/not/here.mtx"),
              std::string::npos);
}

TEST(MatrixMarketHardened, LegacyWrapperStillThrowsRuntimeError) {
    std::stringstream ss("%%MatrixMarket matrix coordinate real general\n"
                         "2 2 7\n");
    EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
    try {
        std::stringstream again("garbage\n");
        (void)read_matrix_market(again);
        FAIL() << "must throw";
    } catch (const StatusError& e) {  // typed error rides along
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_EQ(e.error().line, 1);
    }
}

TEST(MatrixMarketHardened, CorruptCorpusAlwaysYieldsTypedLineNumberedError) {
    // Each file's code, line and message, as the reader gave them before
    // it read plain entry lines in place; the same at every job count.
    struct Want {
        const char* file;
        ErrorCode code;
        std::int64_t line;
        const char* message;
    };
    const Want corpus[] = {
        {"double_sign_value.mtx", ErrorCode::ParseError, 4,
         "missing or non-numeric value on entry line"},
        {"duplicate_entries.mtx", ErrorCode::ValidationError, 5,
         "duplicate entry (1, 1)"},
        {"huge_dims_overflow.mtx", ErrorCode::OverflowError, 2,
         "rows*cols overflows int64"},
        {"negative_dims.mtx", ErrorCode::ValidationError, 3,
         "negative Matrix Market dimensions"},
        {"nnz_exceeds_cells.mtx", ErrorCode::ValidationError, 2,
         "declared nnz 7 exceeds rows*cols = 4"},
        {"non_numeric_value.mtx", ErrorCode::ParseError, 4,
         "missing or non-numeric value on entry line"},
        {"out_of_range_index.mtx", ErrorCode::ValidationError, 4,
         "index (4, 1) out of range for 3x3 matrix"},
        {"size_line_garbage.mtx", ErrorCode::ParseError, 2,
         "trailing garbage after size line"},
        {"truncated_entries.mtx", ErrorCode::ParseError, 4,
         "truncated: size line declares 4 entries, found 2"},
        {"truncated_header.mtx", ErrorCode::ParseError, 2,
         "missing size line"},
        {"unaddressable_cols.mtx", ErrorCode::OverflowError, 2,
         "x of 2305843009213694052 doubles overflows int64 bytes"},
    };
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(SPMVCACHE_TEST_DATA_DIR) / "corrupt";
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".mtx") ++files;
    EXPECT_EQ(files, std::size(corpus)) << "a corpus file has no pinned error";
    for (const Want& want : corpus) {
        const std::string path = (dir / want.file).string();
        for (const std::size_t jobs : {1, 4}) {
            SCOPED_TRACE(std::string(want.file) +
                         " jobs=" + std::to_string(jobs));
            const Result<AnyCsrMatrix> r = try_read_matrix_market_any_file(
                path, MmReadOptions{.strict = true, .jobs = jobs});
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.code(), want.code);
            EXPECT_EQ(r.error().line, want.line);
            EXPECT_EQ(r.error().render(),
                      "reading '" + path + "': " + want.message + " (line " +
                          std::to_string(want.line) + ") [" +
                          to_string(want.code) + "]");
        }
    }
}

TEST(Coo, TryToCsrReportsDuplicateCount) {
    CooMatrix coo(3, 3);
    coo.add(0, 0, 1.0);
    coo.add(0, 0, 2.0);
    coo.add(1, 1, 3.0);
    std::size_t duplicates = 0;
    Result<CsrMatrix> r = std::move(coo).try_to_csr(&duplicates);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(duplicates, 1u);
    EXPECT_EQ(r.value().nnz(), 2);
}

TEST(Csr, CheckReportsFirstViolatedInvariant) {
    const CsrMatrix good = small_matrix();
    EXPECT_TRUE(good.check().ok());
}

}  // namespace
}  // namespace spmvcache
