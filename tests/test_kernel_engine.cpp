// Tests for the kernel engine: every variant against the sequential
// spmv_csr reference across team sizes, the merge variant on the inputs
// that stress its carry fix-up, the bit-exactness contract of the
// scalar/prefetch variants, multi-iteration semantics, variant parsing,
// and the kernel.exec fault point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
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

TEST_P(EngineDifferential, MatchesSequentialKernel) {
    const auto [variant, threads] = GetParam();
    const CsrMatrix a = gen::random_variable_rows(353, 353, 9.0, 1.5, 21);
    const auto x = random_vector(353, 1);
    auto y_ref = random_vector(353, 2);
    auto y_eng = y_ref;
    spmv_csr(a, x, y_ref);

    EngineOptions options;
    options.threads = threads;
    options.variant = variant;
    KernelEngine engine(a, options);
    EXPECT_EQ(engine.info().variant, variant);
    EXPECT_EQ(engine.info().threads, threads);
    EXPECT_TRUE(engine.info().first_touch);
    engine.run(x, y_eng);

    for (std::size_t r = 0; r < y_ref.size(); ++r) {
        if (is_bitwise(variant)) {
            // Same accumulation order as spmv_csr: bit-for-bit equal.
            EXPECT_EQ(std::memcmp(&y_ref[r], &y_eng[r], sizeof(double)), 0)
                << to_string(variant) << " row " << r;
        } else {
            // SIMD/SELL/merge reorder the per-row sums (fma-tolerant).
            EXPECT_NEAR(y_eng[r], y_ref[r],
                        1e-12 * std::max(std::abs(y_ref[r]), 1.0))
                << to_string(variant) << " row " << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsThreadsTouch, EngineDifferential,
    testing::Combine(testing::ValuesIn(kAllVariants),
                     testing::Values(std::int64_t{1}, std::int64_t{2},
                                     std::int64_t{5})),
    differential_name);

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
