// SHARDS sampling tests: the SampleFilter's hash/scaling identities, the
// SampledEngine adapter (R = 1 bit-identity, skip/scale semantics),
// fault-point degradation to exact computation, and the model-level
// accuracy contract — sampled predictions at R = 0.01 within 5% MAPE of
// exact across the generator suite, with error shrinking as R approaches
// 1 and R = 1 bit-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <iterator>
#include <vector>

#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "reuse/kim.hpp"
#include "reuse/olken.hpp"
#include "reuse/sampled.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "trace/sample.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

TEST(SampleFilter, DefaultAndRateOneAreExact) {
    const SampleFilter def;
    EXPECT_TRUE(def.exact());
    EXPECT_EQ(def.rate(), 1.0);
    EXPECT_EQ(def.inverse_rate(), 1.0);
    const SampleFilter one(1.0);
    EXPECT_TRUE(one.exact());
    for (std::uint64_t line = 0; line < 10000; ++line) {
        EXPECT_TRUE(def.keep(line));
        EXPECT_TRUE(one.keep(line));
        EXPECT_EQ(def.scale_distance(line), line);
    }
    EXPECT_EQ(def.scale_count(7.0), 7.0);
}

TEST(SampleFilter, RejectsRatesOutsideUnitInterval) {
    EXPECT_THROW(SampleFilter{0.0}, ContractViolation);
    EXPECT_THROW(SampleFilter{-0.5}, ContractViolation);
    EXPECT_THROW(SampleFilter{1.5}, ContractViolation);
}

TEST(SampleFilter, ValidRatesAreTheOnesTheFilterCanRepresent) {
    // The keep threshold quantizes R at 2^-53: below that no line is kept.
    for (const double rate : {1.0, 0.5, 0.01, 1e-9, 0x1p-53})
        EXPECT_TRUE(valid_sample_rate(rate)) << rate;
    for (const double rate : {0x1p-54, 1e-17, 0.0, -0.5, 1.5, std::nan("")})
        EXPECT_FALSE(valid_sample_rate(rate)) << rate;
    EXPECT_THROW(SampleFilter{1e-17}, ContractViolation);
}

TEST(SampleFilter, KeepFractionTracksRate) {
    // Sequential line numbers are the worst case for a weak hash; the
    // splitmix64 finalizer must still keep ~R of them.
    for (const double rate : {0.01, 0.1, 0.5}) {
        const SampleFilter filter(rate);
        std::uint64_t kept = 0;
        constexpr std::uint64_t kLines = 200000;
        for (std::uint64_t line = 0; line < kLines; ++line)
            if (filter.keep(line)) ++kept;
        const double fraction = static_cast<double>(kept) / kLines;
        EXPECT_NEAR(fraction, rate, 0.15 * rate + 0.001) << "R = " << rate;
    }
}

TEST(SampleFilter, ScalingIdentities) {
    const SampleFilter filter(0.25);
    EXPECT_EQ(filter.scale_distance(100), 400u);
    EXPECT_EQ(filter.scale_distance(0), 0u);
    // Cold misses pass through unscaled.
    EXPECT_EQ(filter.scale_distance(kInfiniteDistance), kInfiniteDistance);
    EXPECT_DOUBLE_EQ(filter.scale_count(8.0), 32.0);
    EXPECT_DOUBLE_EQ(filter.inverse_rate(), 4.0);
}

TEST(SampleFilter, SpatialConsistency) {
    // Spatial filtering: the verdict for a line never changes, and a
    // tighter filter keeps a subset of a looser filter's lines.
    const SampleFilter loose(0.2);
    const SampleFilter tight(0.02);
    Xoshiro256 rng(4);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t line = rng.bounded(1u << 30);
        EXPECT_EQ(loose.keep(line), loose.keep(line));
        if (tight.keep(line)) {
            EXPECT_TRUE(loose.keep(line));
        }
    }
}

template <class Engine, class... Args>
void expect_rate_one_bit_identical(Args&&... args) {
    Engine bare(args...);
    SampledEngine<Engine> sampled(SampleFilter(1.0), args...);
    Xoshiro256 rng(31);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 60000; ++i)
        lines.push_back(rng.uniform() < 0.6 ? rng.bounded(128)
                                            : rng.bounded(30000) + 128);
    // Serial half.
    for (std::size_t i = 0; i < lines.size() / 2; ++i)
        ASSERT_EQ(sampled.access_one(lines[i]), bare.access_one(lines[i]))
            << "ref " << i;
    // Batched half.
    const std::size_t half = lines.size() / 2;
    std::vector<std::uint64_t> expected(lines.size() - half);
    std::vector<std::uint64_t> actual(lines.size() - half);
    bare.access_batch(lines.data() + half, expected.data(), expected.size());
    sampled.access_batch(lines.data() + half, actual.data(), actual.size());
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(sampled.distinct_lines(), bare.distinct_lines());
    EXPECT_EQ(sampled.sampled_refs(), lines.size());
    EXPECT_EQ(sampled.skipped_refs(), 0u);
}

TEST(SampledEngine, RateOneBitIdenticalOlken) {
    expect_rate_one_bit_identical<OlkenEngine>();
}

TEST(SampledEngine, RateOneBitIdenticalKim) {
    expect_rate_one_bit_identical<KimEngine>(std::uint64_t{64});
}

TEST(SampledEngine, SkipAndScaleSemantics) {
    // Reference: a bare engine fed only the kept subtrace. Every kept
    // reference must come back as scale_distance(reference distance);
    // every filtered one as kSkippedDistance.
    constexpr double kRate = 0.1;
    const SampleFilter filter(kRate);
    OlkenEngine reference;
    SampledEngine<OlkenEngine> sampled{SampleFilter(kRate)};
    Xoshiro256 rng(17);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 50000; ++i) lines.push_back(rng.bounded(4000));

    // Serial first half, batched second half (chunks of 257 so batch
    // boundaries land mid-pattern).
    std::uint64_t kept = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::uint64_t got = 0;
        if (i < lines.size() / 2) {
            got = sampled.access_one(lines[i]);
        } else {
            if (i == lines.size() / 2 || (i - lines.size() / 2) % 257 == 0) {
                const std::size_t n =
                    std::min<std::size_t>(257, lines.size() - i);
                static std::vector<std::uint64_t> dists;
                dists.resize(n);
                sampled.access_batch(lines.data() + i, dists.data(), n);
                for (std::size_t k = 0; k < n; ++k) {
                    const std::uint64_t expected =
                        filter.keep(lines[i + k])
                            ? filter.scale_distance(
                                  reference.access_one(lines[i + k]))
                            : kSkippedDistance;
                    ASSERT_EQ(dists[k], expected) << "ref " << i + k;
                    if (filter.keep(lines[i + k])) ++kept;
                }
            }
            continue;
        }
        const std::uint64_t expected =
            filter.keep(lines[i])
                ? filter.scale_distance(reference.access_one(lines[i]))
                : kSkippedDistance;
        ASSERT_EQ(got, expected) << "ref " << i;
        if (filter.keep(lines[i])) ++kept;
    }
    EXPECT_EQ(sampled.sampled_refs(), kept);
    EXPECT_EQ(sampled.sampled_refs() + sampled.skipped_refs(), lines.size());
    // The scaled distinct-line estimate lands near the true footprint.
    const double estimate = static_cast<double>(sampled.distinct_lines());
    const double truth = static_cast<double>(reference.distinct_lines()) /
                         kRate;  // reference saw only kept lines
    EXPECT_DOUBLE_EQ(estimate, std::llround(truth));
}

// ---------------------------------------------------------------------------
// Model-level contract: exact bit-identity, fault degradation, and the
// MAPE accuracy gate across the generator suite.

A64fxConfig scaled_machine() {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};    // 16 sets x 4 ways
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};  // 128 sets x 16 ways
    return cfg;
}

ModelOptions model_options(SectorPolicy policy, double sample_rate) {
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 4;
    o.policy = policy;
    o.l2_way_options = {2, 4, 6};
    o.predict_l1 = true;
    o.sample_rate = sample_rate;
    return o;
}

void expect_results_bit_identical(const ModelResult& a, const ModelResult& b) {
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (std::size_t i = 0; i < a.configs.size(); ++i) {
        EXPECT_EQ(a.configs[i].l2_sector_ways, b.configs[i].l2_sector_ways);
        EXPECT_EQ(a.configs[i].l2_misses, b.configs[i].l2_misses);
        EXPECT_EQ(a.configs[i].l2_x_misses, b.configs[i].l2_x_misses);
    }
    EXPECT_EQ(a.l1_misses, b.l1_misses);
    EXPECT_EQ(a.l1_x_misses, b.l1_x_misses);
    EXPECT_EQ(a.x_traffic_fraction, b.x_traffic_fraction);
}

TEST(SampledModel, RateOneIsBitIdenticalAndReportedExact) {
    const CsrMatrix m = gen::random_uniform(2048, 2048, 128, 77);
    for (const bool method_b : {false, true}) {
        const ModelOptions exact =
            model_options(SectorPolicy::IsolateMatrix, 1.0);
        const ModelResult base =
            method_b ? run_method_b(m, exact) : run_method_a(m, exact);
        const ModelResult again =
            method_b ? run_method_b(m, exact) : run_method_a(m, exact);
        expect_results_bit_identical(base, again);
        EXPECT_FALSE(base.sampled);
        EXPECT_EQ(base.sample_rate, 1.0);
        std::uint64_t total_refs = 0;
        for (const ShardStats& s : base.shards) {
            EXPECT_EQ(s.sampled_refs, s.references);
            total_refs += s.references;
        }
        EXPECT_EQ(base.sampled_refs, total_refs);
    }
}

TEST(SampledModel, SampleFaultDegradesToExact) {
    // An armed reuse.sample fault must turn a sampled run into an exact
    // one — identical numbers, and the result says so.
    const CsrMatrix m = gen::random_uniform(2048, 2048, 128, 77);
    const ModelResult exact = run_method_a(
        m, model_options(SectorPolicy::IsolateMatrix, 1.0));

    fault::ScopedFault degrade("reuse.sample",
                               {.probability = 1.0, .once = false});
    const ModelResult degraded = run_method_a(
        m, model_options(SectorPolicy::IsolateMatrix, 0.01));
    expect_results_bit_identical(exact, degraded);
    EXPECT_FALSE(degraded.sampled);
    EXPECT_EQ(degraded.sample_rate, 1.0);
    EXPECT_EQ(degraded.sampled_refs, exact.sampled_refs);
}

TEST(SampledModel, UnrepresentableRateIsAValidationError) {
    // R = 1e-17 would quantize to a zero keep threshold: no line kept,
    // every prediction zero.
    const CsrMatrix m = gen::random_uniform(2048, 2048, 128, 77);
    const ModelOptions o = model_options(SectorPolicy::IsolateMatrix, 1e-17);
    for (const bool method_b : {false, true}) {
        try {
            (void)(method_b ? run_method_b(m, o) : run_method_a(m, o));
            ADD_FAILURE() << (method_b ? "method B" : "method A")
                          << " ran at R = 1e-17";
        } catch (const StatusError& e) {
            EXPECT_EQ(e.code(), ErrorCode::ValidationError);
        }
    }
}

TEST(SampledModel, SampledRunReportsItself) {
    const CsrMatrix m = gen::random_uniform(2048, 2048, 128, 77);
    const ModelResult r = run_method_a(
        m, model_options(SectorPolicy::IsolateMatrix, 0.01));
    EXPECT_TRUE(r.sampled);
    EXPECT_EQ(r.sample_rate, 0.01);
    std::uint64_t refs = 0;
    std::uint64_t kept = 0;
    for (const ShardStats& s : r.shards) {
        refs += s.references;
        kept += s.sampled_refs;
    }
    EXPECT_EQ(r.sampled_refs, kept);
    ASSERT_GT(refs, 0u);
    // The filter keeps roughly R of the demand references.
    const double fraction = static_cast<double>(kept) / static_cast<double>(refs);
    EXPECT_LT(fraction, 0.05);
    EXPECT_GT(fraction, 0.001);
}

/// The accuracy gate. Matrices are streaming-dominated (large matrix-data
/// footprints, local x reuse) — the regime the paper's models target and
/// where SHARDS' binomial error on the kept-line count is the dominant
/// term: with ~150-200k distinct matrix lines, R = 0.01 keeps ~2k lines
/// and the relative error on miss totals is a few percent. Everything is
/// deterministic (fixed generator seeds, fixed sampling hash), so these
/// bounds are exact regression checks, not flaky statistics.
class SampledModelAccuracy : public testing::Test {
protected:
    static const std::vector<CsrMatrix>& matrices() {
        static const std::vector<CsrMatrix> ms = [] {
            std::vector<CsrMatrix> v;
            // ~4.2M nnz banded: x window of 32 lines reused across rows.
            v.push_back(gen::banded(65536, 64, 512, 11));
            // ~2.9M nnz 5-point stencil on a 768x768 grid.
            v.push_back(gen::stencil_2d_5pt(768, 768));
            return v;
        }();
        return ms;
    }

    struct Mape {
        double sum = 0.0;
        std::uint64_t terms = 0;
        void add(double exact, double approx) {
            if (exact <= 0.0) return;
            sum += std::abs(approx - exact) / exact;
            ++terms;
        }
        [[nodiscard]] double value() const {
            return terms > 0 ? sum / static_cast<double>(terms) : 0.0;
        }
    };

    struct Cell {
        std::size_t matrix;
        bool method_b;
        SectorPolicy policy;
    };

    /// Each matrix, both methods and both sector policies appear (the
    /// full 2x2x2 cross would double the exact-baseline cost per ctest
    /// process for no new coverage on any single dimension).
    static constexpr Cell kCells[] = {
        {0, false, SectorPolicy::IsolateMatrix},
        {0, true, SectorPolicy::IsolateMatrixRowptrY},
        {1, true, SectorPolicy::IsolateMatrix},
        {1, false, SectorPolicy::IsolateMatrixRowptrY},
    };

    /// Runs `cells` of the grid at `rate` and accumulates the per-config
    /// L2 absolute percentage errors against exact results (computed once
    /// per process, cached across a test's mape_at calls).
    static Mape mape_at(double rate, std::size_t cells = std::size(kCells)) {
        Mape mape;
        for (std::size_t c = 0; c < cells; ++c) {
            const Cell& cell = kCells[c];
            const CsrMatrix& m = matrices()[cell.matrix];
            const ModelResult& exact = exact_cell(c);
            const ModelOptions opts = model_options(cell.policy, rate);
            const ModelResult approx = cell.method_b ? run_method_b(m, opts)
                                                     : run_method_a(m, opts);
            EXPECT_EQ(approx.sampled, rate < 1.0);
            EXPECT_EQ(approx.configs.size(), exact.configs.size());
            const std::size_t n =
                std::min(approx.configs.size(), exact.configs.size());
            for (std::size_t i = 0; i < n; ++i)
                mape.add(exact.configs[i].l2_misses,
                         approx.configs[i].l2_misses);
        }
        return mape;
    }

private:
    static const ModelResult& exact_cell(std::size_t c) {
        static std::vector<ModelResult> cache;
        if (c >= cache.size()) {
            const Cell& cell = kCells[c];
            const ModelOptions opts = model_options(cell.policy, 1.0);
            cache.push_back(cell.method_b
                                ? run_method_b(matrices()[cell.matrix], opts)
                                : run_method_a(matrices()[cell.matrix], opts));
        }
        return cache[c];
    }
};

TEST_F(SampledModelAccuracy, WithinFivePercentAtOnePercentRate) {
    const Mape mape = mape_at(0.01);
    ASSERT_GT(mape.terms, 0u);
    RecordProperty("mape_r001", testing::PrintToString(mape.value()));
    std::cout << "MAPE(R=0.01) = " << mape.value() << " over " << mape.terms
              << " configs\n";
    EXPECT_LE(mape.value(), 0.05)
        << "MAPE " << mape.value() << " over " << mape.terms << " configs";
}

TEST_F(SampledModelAccuracy, ErrorShrinksAsRateApproachesOne) {
    const double at_1pct = mape_at(0.01).value();
    const double at_25pct = mape_at(0.25).value();
    std::cout << "MAPE(R=0.01) = " << at_1pct << ", MAPE(R=0.25) = "
              << at_25pct << "\n";
    EXPECT_LE(at_25pct, at_1pct + 0.01)
        << "R=0.25 MAPE " << at_25pct << " vs R=0.01 MAPE " << at_1pct;
}

TEST_F(SampledModelAccuracy, RateOneIsExactOnLargeMatrices) {
    // Bitwise R=1 identity at full scale on one grid cell; the small-
    // matrix SampledModel tests already cover both methods exhaustively.
    const Mape mape = mape_at(1.0, 1);
    ASSERT_GT(mape.terms, 0u);
    EXPECT_EQ(mape.value(), 0.0);  // bitwise: |approx - exact| == 0
}

}  // namespace
}  // namespace spmvcache
