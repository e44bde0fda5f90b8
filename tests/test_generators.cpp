// Unit tests for src/sparse/gen: structural properties of every generator
// family and of the synthetic suite / Table 1 analogues.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/matrix_source.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/gen/suite.hpp"
#include "sparse/gen/table1.hpp"
#include "sparse/matrix_stats.hpp"

namespace spmvcache {
namespace {

TEST(Stencil, FivePointInteriorRowHasFiveEntries) {
    const CsrMatrix m = gen::stencil_2d_5pt(5, 5);
    m.validate();
    EXPECT_EQ(m.rows(), 25);
    // Interior node (2,2) -> row 12.
    EXPECT_EQ(m.row_nnz(12), 5);
    // Corner node -> 3 entries.
    EXPECT_EQ(m.row_nnz(0), 3);
    // Laplacian row sums: diagonal 4, neighbors -1 each.
    const auto dense = to_dense(m);
    EXPECT_DOUBLE_EQ(dense[12 * 25 + 12], 4.0);
    EXPECT_DOUBLE_EQ(dense[12 * 25 + 11], -1.0);
    EXPECT_DOUBLE_EQ(dense[12 * 25 + 7], -1.0);
}

TEST(Stencil, NinePointInteriorRowHasNineEntries) {
    const CsrMatrix m = gen::stencil_2d_9pt(4, 4);
    m.validate();
    EXPECT_EQ(m.row_nnz(5), 9);   // interior
    EXPECT_EQ(m.row_nnz(0), 4);   // corner of full 3x3 neighborhood
}

TEST(Stencil, SevenPoint3dInterior) {
    const CsrMatrix m = gen::stencil_3d_7pt(3, 3, 3);
    m.validate();
    EXPECT_EQ(m.rows(), 27);
    EXPECT_EQ(m.row_nnz(13), 7);  // center node
}

TEST(Stencil, TwentySevenPoint3dInterior) {
    const CsrMatrix m = gen::stencil_3d_27pt(3, 3, 3);
    m.validate();
    EXPECT_EQ(m.row_nnz(13), 27);
    EXPECT_EQ(m.row_nnz(0), 8);
}

TEST(Stencil, SymmetricPattern) {
    const CsrMatrix m = gen::stencil_2d_5pt(6, 4);
    const auto dense = to_dense(m);
    for (std::int64_t r = 0; r < m.rows(); ++r)
        for (std::int64_t c = 0; c < m.cols(); ++c) {
            const bool rc = dense[static_cast<std::size_t>(r * m.cols() + c)] != 0.0;
            const bool cr = dense[static_cast<std::size_t>(c * m.cols() + r)] != 0.0;
            EXPECT_EQ(rc, cr);
        }
}

TEST(Banded, RespectsBandwidthAndRowCount) {
    const CsrMatrix m = gen::banded(500, 9, 20, 42);
    m.validate();
    const auto s = compute_stats(m);
    EXPECT_LE(s.bandwidth, 20);
    EXPECT_NEAR(s.mean_nnz_per_row, 9.0, 0.5);
    // Diagonal always present.
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        bool has_diag = false;
        for (auto i = rowptr[static_cast<std::size_t>(r)];
             i < rowptr[static_cast<std::size_t>(r) + 1]; ++i)
            if (colidx[static_cast<std::size_t>(i)] == r) has_diag = true;
        EXPECT_TRUE(has_diag) << "row " << r;
    }
}

TEST(Banded, DeterministicForSeed) {
    const CsrMatrix a = gen::banded(200, 5, 10, 7);
    const CsrMatrix b = gen::banded(200, 5, 10, 7);
    EXPECT_EQ(a.nnz(), b.nnz());
    EXPECT_TRUE(std::equal(a.colidx().begin(), a.colidx().end(),
                           b.colidx().begin()));
}

TEST(Circuit, MeanDegreeNearTarget) {
    const CsrMatrix m = gen::circuit(2000, 3.0, 50, 0.1, 11);
    m.validate();
    const auto s = compute_stats(m);
    // diagonal + ~3 extras, minus duplicate collisions.
    EXPECT_GT(s.mean_nnz_per_row, 3.0);
    EXPECT_LT(s.mean_nnz_per_row, 4.2);
}

TEST(RandomUniform, ExactRowDegrees) {
    const CsrMatrix m = gen::random_uniform(300, 400, 24, 3);
    m.validate();
    EXPECT_EQ(m.cols(), 400);
    for (std::int64_t r = 0; r < m.rows(); ++r) EXPECT_EQ(m.row_nnz(r), 24);
}

TEST(GeneratorSpec, SmallSizesBuildOrAreRefusedTyped) {
    // random puts 24 nonzeros in every row, so it needs 24 columns; every
    // other family builds at any positive size.
    for (const char* family : {"stencil2d5", "stencil3d27", "banded", "circuit",
                               "random", "randomcv", "blockfem"}) {
        for (const int n : {1, 2, 3, 5, 8, 13, 23, 24, 32}) {
            const std::string spec =
                std::string(family) + ":" + std::to_string(n);
            const Result<CsrMatrix> m = generated_matrix(spec, 7);
            if (std::string(family) == "random" && n < 24) {
                ASSERT_FALSE(m.ok()) << spec;
                EXPECT_EQ(m.code(), ErrorCode::ValidationError) << spec;
                EXPECT_NE(m.error().render().find(spec), std::string::npos)
                    << m.error().render();
            } else {
                ASSERT_TRUE(m.ok()) << spec << ": " << m.error().render();
                m.value().validate();
            }
        }
    }
}

TEST(RandomVariableRows, HitsTargetCv) {
    const CsrMatrix m = gen::random_variable_rows(4000, 4000, 8.0, 1.5, 5);
    m.validate();
    const auto s = compute_stats(m);
    // Clamping at 1 nonzero/row truncates the left tail, which raises the
    // realised mean and shrinks the realised CV somewhat.
    EXPECT_NEAR(s.mean_nnz_per_row, 8.0, 3.0);
    EXPECT_GT(s.cv_nnz_per_row, 0.7);
}

TEST(Rmat, PowerLawSkew) {
    const CsrMatrix m = gen::rmat(12, 40000, 9);
    m.validate();
    EXPECT_EQ(m.rows(), 4096);
    const auto s = compute_stats(m);
    // RMAT with a=0.57 concentrates nonzeros: CV well above a uniform
    // matrix's, max row far above the mean.
    EXPECT_GT(s.cv_nnz_per_row, 1.0);
    EXPECT_GT(static_cast<double>(s.max_nnz_per_row),
              5.0 * s.mean_nnz_per_row);
}

TEST(BlockFem, DenseBlocksShareColumns) {
    const CsrMatrix m = gen::block_fem(32, 4, 3, 8, 21);
    m.validate();
    EXPECT_EQ(m.rows(), 128);
    // All rows of a block row have identical nonzero counts.
    for (std::int64_t br = 0; br < 32; ++br) {
        const auto k0 = m.row_nnz(br * 4);
        for (std::int64_t lr = 1; lr < 4; ++lr)
            EXPECT_EQ(m.row_nnz(br * 4 + lr), k0);
    }
}

TEST(Suite, CoversAllFamiliesDeterministically) {
    gen::SuiteOptions options;
    options.count = 16;
    options.scale = 0.01;  // tiny for test speed
    const auto suite = gen::synthetic_suite(options);
    EXPECT_GE(suite.size(), 16u);
    std::set<std::string> families;
    for (const auto& spec : suite) families.insert(spec.family);
    EXPECT_GE(families.size(), 8u);
    // Deterministic names and factories.
    const auto suite2 = gen::synthetic_suite(options);
    ASSERT_EQ(suite.size(), suite2.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, suite2[i].name);
        const CsrMatrix a = suite[i].factory();
        const CsrMatrix b = suite2[i].factory();
        EXPECT_EQ(a.nnz(), b.nnz()) << suite[i].name;
    }
}

TEST(Table1, HasAllEighteenRows) {
    const auto& ref = gen::table1_reference();
    ASSERT_EQ(ref.size(), 18u);
    EXPECT_STREQ(ref.front().name, "pdb1HYS");
    EXPECT_STREQ(ref.back().name, "ML_Geer");
    const auto suite = gen::table1_suite(0.002);
    ASSERT_EQ(suite.size(), 18u);
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i].name, ref[i].name);
}

TEST(Table1, AnaloguesMatchNnzPerRowShape) {
    const double scale = 0.01;
    const auto suite = gen::table1_suite(scale);
    const auto& ref = gen::table1_reference();
    for (std::size_t i = 0; i < 6; ++i) {  // the smaller matrices
        const CsrMatrix m = suite[i].factory();
        m.validate();
        const double target_nnz_per_row =
            ref[i].nnz_millions / ref[i].rows_millions;
        const auto s = compute_stats(m);
        EXPECT_NEAR(s.mean_nnz_per_row / target_nnz_per_row, 1.0, 0.45)
            << suite[i].name;
    }
}

}  // namespace
}  // namespace spmvcache
