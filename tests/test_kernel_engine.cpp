// Tests for the kernel engine: every variant and auto against the
// sequential spmv_csr reference across team sizes and both index widths,
// the merge variant on the inputs that stress its carry fix-up, the
// bit-exactness contract of the scalar/prefetch variants, the in-place
// SELL fill against BasicSellCSigmaMatrix, auto's padding rule,
// multi-iteration semantics, variant parsing, and the kernel.exec fault
// point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/sellcs.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> v(n);
    for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    return v;
}

/// All concrete variants (Auto resolves to one of these).
const KernelVariant kAllVariants[] = {
    KernelVariant::CsrScalar, KernelVariant::CsrPrefetch,
    KernelVariant::CsrSimd,   KernelVariant::SellScalar,
    KernelVariant::SellSimd,  KernelVariant::CsrMerge,
};

/// The concrete variants plus Auto, for the differential suite.
const KernelVariant kVariantsAndAuto[] = {
    KernelVariant::CsrScalar, KernelVariant::CsrPrefetch,
    KernelVariant::CsrSimd,   KernelVariant::SellScalar,
    KernelVariant::SellSimd,  KernelVariant::CsrMerge,
    KernelVariant::Auto,
};

/// The randomcv generator's class: row lengths drawn around a mean of 8
/// with CV parameter 2 (a measured row-length CV near 1.01), whose
/// sigma-sorted SELL-8-256 layout pads by only about 7 %.
CsrMatrix randomcv_class(std::int64_t n, std::uint64_t seed) {
    return gen::random_variable_rows(n, n, 8.0, 2.0, seed);
}

/// Variants bound to Listing 1's exact accumulation order.
bool is_bitwise(KernelVariant v) {
    return v == KernelVariant::CsrScalar || v == KernelVariant::CsrPrefetch;
}

class EngineDifferential
    : public testing::TestWithParam<std::tuple<KernelVariant, std::int64_t>> {
};

/// `<variant>_t<threads>_touch`: every engine computes on first-touch
/// copies of the matrix arrays.
std::string differential_name(
    const testing::TestParamInfo<EngineDifferential::ParamType>& info) {
    std::string name = to_string(std::get<0>(info.param));
    for (auto& ch : name)
        if (ch == '-') ch = '_';
    return name + "_t" + std::to_string(std::get<1>(info.param)) + "_touch";
}

/// Runs an engine of `variant` on `threads` workers over `a` from the
/// same seed vectors as spmv_csr and checks every row: bit for bit for
/// the variants (resolved, for Auto) that keep Listing 1's order, to the
/// fma tolerance for the rest.
template <class Idx>
void expect_engine_matches(const BasicCsrView<Idx>& a, KernelVariant variant,
                           std::int64_t threads) {
    const auto x = random_vector(static_cast<std::size_t>(a.cols()), 1);
    auto y_ref = random_vector(static_cast<std::size_t>(a.rows()), 2);
    auto y_eng = y_ref;
    spmv_csr(a, x, y_ref);

    EngineOptions options;
    options.threads = threads;
    options.variant = variant;
    BasicKernelEngine<Idx> engine(a, options);
    const KernelVariant resolved = engine.info().variant;
    if (variant == KernelVariant::Auto)
        EXPECT_NE(resolved, KernelVariant::Auto);
    else
        EXPECT_EQ(resolved, variant);
    EXPECT_EQ(engine.info().threads, threads);
    EXPECT_TRUE(engine.info().first_touch);
    engine.run(x, y_eng);

    for (std::size_t r = 0; r < y_ref.size(); ++r) {
        if (is_bitwise(resolved)) {
            // Same accumulation order as spmv_csr: bit-for-bit equal.
            EXPECT_EQ(std::memcmp(&y_ref[r], &y_eng[r], sizeof(double)), 0)
                << to_string(resolved) << " row " << r;
        } else {
            // SIMD/SELL/merge reorder the per-row sums (fma-tolerant).
            EXPECT_NEAR(y_eng[r], y_ref[r],
                        1e-12 * std::max(std::abs(y_ref[r]), 1.0))
                << to_string(resolved) << " row " << r;
        }
    }
}

TEST_P(EngineDifferential, MatchesSequentialKernel) {
    const auto [variant, threads] = GetParam();
    const CsrMatrix a = gen::random_variable_rows(353, 353, 9.0, 1.5, 21);
    expect_engine_matches(CsrView(a), variant, threads);
}

TEST_P(EngineDifferential, RandomcvClassAtBothWidths) {
    const auto [variant, threads] = GetParam();
    const CsrMatrix a = randomcv_class(2000, 17);
    const CsrMatrix64 wide = convert_csr_width<Idx64>(CsrView(a));
    expect_engine_matches(CsrView(a), variant, threads);
    expect_engine_matches(CsrView64(wide), variant, threads);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsThreadsTouch, EngineDifferential,
    testing::Combine(testing::ValuesIn(kVariantsAndAuto),
                     testing::Values(std::int64_t{1}, std::int64_t{2},
                                     std::int64_t{5})),
    differential_name);

/// Matrices for the engine's in-place SELL fill, against C = 8: empty
/// rows and a ragged last chunk, fewer chunks than the largest team, and
/// no nonzeros at all (with and without rows).
std::vector<std::pair<std::string, CsrMatrix>> sell_fill_matrices() {
    std::vector<std::pair<std::string, CsrMatrix>> out;
    CsrBuilder ragged(203, 203);  // 26 chunks, the last holding 3 rows
    Xoshiro256 rng(31);
    for (std::int64_t r = 0; r < 203; ++r) {
        if (r % 3 == 0) continue;  // every third row is empty
        const std::int64_t len = r % 7 == 1 ? 19 : 1 + r % 4;
        for (std::int64_t j = 0; j < len; ++j)
            ragged.push(r, static_cast<std::int32_t>((r * 5) % 150 + j * 2),
                        rng.uniform(-1.0, 1.0));
    }
    out.emplace_back("ragged", std::move(ragged).finish());
    out.emplace_back("few_chunks", gen::random_uniform(12, 40, 5, 3));
    out.emplace_back("no_nonzeros", CsrBuilder(10, 10).finish());
    out.emplace_back("no_rows", CsrBuilder(0, 0).finish());
    return out;
}

/// A SELL engine's geometry and in-place arrays equal the ones
/// BasicSellCSigmaMatrix builds at the engine's C = 8, sigma = 256.
template <class Idx>
void expect_sell_fill_matches_class(const BasicCsrView<Idx>& a,
                                    std::int64_t threads,
                                    const std::string& what) {
    EngineOptions options;
    options.threads = threads;
    options.variant = KernelVariant::SellScalar;
    const BasicKernelEngine<Idx> engine(a, options);
    const BasicSellCSigmaMatrix<Idx> sell(a, 8, 256);
    const BasicSellGeometry<Idx>& g = engine.sell_geometry();
    const auto same = [](auto got, auto want) {
        return got.size() == want.size() &&
               (want.empty() ||
                std::memcmp(got.data(), want.data(), want.size_bytes()) == 0);
    };
    EXPECT_EQ(g.chunk_height(), 8) << what;
    EXPECT_EQ(g.sigma(), 256) << what;
    EXPECT_TRUE(same(g.perm(), sell.perm())) << what;
    EXPECT_TRUE(same(g.chunk_offsets(), sell.chunk_offsets())) << what;
    EXPECT_TRUE(same(g.chunk_widths(), sell.chunk_widths())) << what;
    EXPECT_TRUE(same(engine.sell_values(), sell.values())) << what;
    EXPECT_TRUE(same(engine.sell_colidx(), sell.colidx())) << what;
    EXPECT_EQ(engine.info().sell_padding, sell.padding_factor()) << what;
}

class EngineSellFill : public testing::TestWithParam<std::int64_t> {};

TEST_P(EngineSellFill, ArraysEqualTheClassBitForBit) {
    const std::int64_t threads = GetParam();
    for (const auto& [name, a] : sell_fill_matrices()) {
        const CsrMatrix64 wide = convert_csr_width<Idx64>(CsrView(a));
        expect_sell_fill_matches_class(CsrView(a), threads, name + " w32");
        expect_sell_fill_matches_class(CsrView64(wide), threads,
                                       name + " w64");
    }
}

INSTANTIATE_TEST_SUITE_P(Teams, EngineSellFill,
                         testing::Values(std::int64_t{1}, std::int64_t{2},
                                         std::int64_t{3}, std::int64_t{8}));

/// Runs the merge variant on `threads` workers from the same seed
/// vectors as spmv_csr; merge reorders the per-row sums, so the check is
/// fma-tolerant.
void expect_merge_matches(const CsrMatrix& a, std::int64_t threads,
                          std::uint64_t seed) {
    const auto x = random_vector(static_cast<std::size_t>(a.cols()), seed);
    auto y_ref = random_vector(static_cast<std::size_t>(a.rows()), seed + 1);
    auto y_eng = y_ref;
    spmv_csr(a, x, y_ref);
    EngineOptions options;
    options.threads = threads;
    options.variant = KernelVariant::CsrMerge;
    KernelEngine engine(a, options);
    engine.run(x, y_eng);
    for (std::size_t r = 0; r < y_ref.size(); ++r)
        EXPECT_NEAR(y_eng[r], y_ref[r],
                    1e-12 * std::max(std::abs(y_ref[r]), 1.0))
            << threads << " threads, row " << r;
}

TEST(SpmvMerge, MatchesStandardCsr) {
    const CsrMatrix a = gen::random_uniform(300, 250, 6, 9);
    for (const std::int64_t threads : {1, 2, 7})
        expect_merge_matches(a, threads, 10);
    // Fewer rows than threads: the pieces split rows, which the carry
    // fix-up completes.
    const CsrMatrix few = gen::random_uniform(5, 64, 12, 11);
    expect_merge_matches(few, 8, 12);
}

TEST(SpmvMerge, HandlesSkewedRowsAcrossPieceBoundaries) {
    // One 500-nonzero row followed by many empty and tiny rows: rows
    // straddle piece boundaries, exercising the carry fix-up.
    CsrBuilder b(50, 512);
    for (int c = 0; c < 500; ++c) b.push(0, c, 0.01);
    for (int r = 10; r < 50; r += 3)
        b.push(r, static_cast<std::int32_t>(r), 1.0);
    const CsrMatrix a = std::move(b).finish();
    for (const std::int64_t threads : {3, 8, 16})
        expect_merge_matches(a, threads, 13);
}

TEST(SpmvMerge, EmptyMatrix) {
    // More threads than rows and no nonzeros: every piece walks row ends
    // only, and y stays as it was.
    CsrBuilder b(4, 4);
    const CsrMatrix a = std::move(b).finish();
    EngineOptions options;
    options.threads = 8;
    options.variant = KernelVariant::CsrMerge;
    KernelEngine engine(a, options);
    std::vector<double> x(4, 1.0), y(4, 2.0);
    engine.run(x, y);
    for (const double v : y) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(KernelEngine, RunIterationsEqualsRepeatedRuns) {
    const CsrMatrix a = gen::random_uniform(200, 200, 8, 3);
    const auto x = random_vector(200, 4);
    for (const KernelVariant v : kAllVariants) {
        EngineOptions options;
        options.threads = 3;
        options.variant = v;
        KernelEngine engine(a, options);

        auto y_many = random_vector(200, 5);
        auto y_single = y_many;
        engine.run_iterations(x, y_many, 4);
        for (int i = 0; i < 4; ++i) engine.run(x, y_single);
        for (std::size_t r = 0; r < 200; ++r)
            EXPECT_EQ(std::memcmp(&y_many[r], &y_single[r], sizeof(double)),
                      0)
                << to_string(v) << " row " << r;
    }
}

TEST(KernelEngine, ZeroIterationsIsANoOp) {
    const CsrMatrix a = gen::random_uniform(50, 50, 4, 6);
    const auto x = random_vector(50, 7);
    auto y = random_vector(50, 8);
    const auto y_before = y;
    KernelEngine engine(a, EngineOptions{});
    engine.run_iterations(x, y, 0);
    EXPECT_EQ(y, y_before);
}

TEST(KernelEngine, AutoResolvesToConcreteVariant) {
    const CsrMatrix a = gen::random_uniform(300, 300, 12, 9);
    EngineOptions options;
    options.threads = 2;
    options.variant = KernelVariant::Auto;
    KernelEngine engine(a, options);
    EXPECT_NE(engine.info().variant, KernelVariant::Auto);
    // Auto must still produce correct results, whatever it picked.
    const auto x = random_vector(300, 10);
    auto y_ref = random_vector(300, 11);
    auto y_eng = y_ref;
    spmv_csr(a, x, y_ref);
    engine.run(x, y_eng);
    for (std::size_t r = 0; r < 300; ++r)
        EXPECT_NEAR(y_eng[r], y_ref[r],
                    1e-12 * std::max(std::abs(y_ref[r]), 1.0));
}

TEST(KernelEngine, AutoResolvesSellByPadding) {
    EngineOptions options;
    options.variant = KernelVariant::Auto;

    // One 2000-nonzero row among 99 single-entry rows: no row split
    // balances it, so two workers resolve to merge, before any probe.
    CsrBuilder skewed(100, 2048);
    for (std::int32_t c = 0; c < 2000; ++c) skewed.push(0, c, 0.5);
    for (std::int64_t r = 1; r < 100; ++r)
        skewed.push(r, static_cast<std::int32_t>(r), 1.0);
    options.threads = 2;
    const KernelEngine merge(std::move(skewed).finish(), options);
    EXPECT_GT(merge.info().imbalance, 1.5);
    EXPECT_EQ(merge.info().variant, KernelVariant::CsrMerge);
    EXPECT_EQ(merge.info().sell_padding, 0.0);  // not probed

    if (simd::best().isa == simd::Isa::Scalar)
        GTEST_SKIP() << "no vector ISA: auto runs csr-prefetch";

    // The randomcv class pads by ~7 % once sigma-sorted: sell-simd, and
    // the padding reported is the one of the layout the engine runs.
    const CsrMatrix cv = randomcv_class(20000, 1);
    const SellCSigmaMatrix cv_sell(cv, 8, 256);
    for (const std::int64_t threads : {1, 4}) {
        options.threads = threads;
        const KernelEngine engine(cv, options);
        EXPECT_EQ(engine.info().variant, KernelVariant::SellSimd)
            << threads << " threads";
        EXPECT_EQ(engine.info().sell_padding, cv_sell.padding_factor());
    }

    // One 256-nonzero row per sigma window of single-entry rows: the
    // window's first chunk pads every lane to 256, so padding is ~4.5 and
    // auto keeps CSR, still reporting what it probed.
    CsrBuilder long_rows(4096, 4096);
    for (std::int64_t r = 0; r < 4096; ++r) {
        if (r % 256 == 0) {
            for (std::int32_t c = 0; c < 256; ++c) long_rows.push(r, c, 1.0);
        } else {
            long_rows.push(r, static_cast<std::int32_t>(r), 1.0);
        }
    }
    const CsrMatrix padded = std::move(long_rows).finish();
    const SellCSigmaMatrix padded_sell(padded, 8, 256);
    EXPECT_GT(padded_sell.padding_factor(), 4.0);
    options.threads = 1;
    const KernelEngine csr(padded, options);
    EXPECT_EQ(csr.info().variant, KernelVariant::CsrSimd);
    EXPECT_EQ(csr.info().sell_padding, padded_sell.padding_factor());
}

TEST(KernelEngine, PrefetchDistanceIsSurfacedAndPinnable) {
    const CsrMatrix a = gen::random_uniform(400, 400, 10, 13);
    EngineOptions options;
    options.variant = KernelVariant::CsrPrefetch;
    options.prefetch_distance = 24;
    KernelEngine pinned(a, options);
    EXPECT_EQ(pinned.info().prefetch_distance, 24);

    options.prefetch_distance = 0;  // auto-calibrate
    KernelEngine calibrated(a, options);
    EXPECT_GE(calibrated.info().prefetch_distance, 0);
    // Calibration must not change results (prefetch is semantically inert).
    const auto x = random_vector(400, 14);
    auto y_ref = random_vector(400, 15);
    auto y_eng = y_ref;
    spmv_csr(a, x, y_ref);
    calibrated.run(x, y_eng);
    for (std::size_t r = 0; r < 400; ++r)
        EXPECT_EQ(std::memcmp(&y_ref[r], &y_eng[r], sizeof(double)), 0);
}

TEST(KernelEngine, EmptyMatrix) {
    CsrBuilder b(10, 10);
    const CsrMatrix a = std::move(b).finish();
    for (const KernelVariant v : kAllVariants) {
        EngineOptions options;
        options.threads = 2;
        options.variant = v;
        KernelEngine engine(a, options);
        const auto x = random_vector(10, 23);
        std::vector<double> y(10, 3.5);
        engine.run(x, y);
        for (const double e : y)
            EXPECT_DOUBLE_EQ(e, 3.5) << to_string(v);
    }
}

TEST(KernelEngine, ParsesEveryVariantName) {
    for (const KernelVariant v : kAllVariants) {
        const Result<KernelVariant> parsed = parse_kernel_variant(
            to_string(v));
        ASSERT_TRUE(parsed.ok()) << to_string(v);
        EXPECT_EQ(parsed.value(), v);
    }
    const Result<KernelVariant> auto_parsed = parse_kernel_variant("auto");
    ASSERT_TRUE(auto_parsed.ok());
    EXPECT_EQ(auto_parsed.value(), KernelVariant::Auto);
    const Result<KernelVariant> bad = parse_kernel_variant("csc");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::ValidationError);
}

TEST(KernelEngine, KernelExecFaultPointFires) {
    const CsrMatrix a = gen::random_uniform(60, 60, 4, 37);
    KernelEngine engine(a, EngineOptions{});
    const auto x = random_vector(60, 38);
    auto y = random_vector(60, 39);
    const auto y_before = y;
    {
        fault::ScopedFault f("kernel.exec");
        EXPECT_THROW(engine.run(x, y), fault::FaultInjectedError);
        EXPECT_EQ(y, y_before);  // fault fires before any work
    }
    engine.run(x, y);  // disarmed: runs normally
    EXPECT_NE(y, y_before);
}

}  // namespace
}  // namespace spmvcache
