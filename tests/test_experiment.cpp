// Integration tests: the full experiment pipeline — trace -> simulator
// bank -> counters/timing, and model-vs-measured agreement. These are the
// end-to-end checks that the reproduction machinery behaves like the
// paper's setup.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "model/classify.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "util/stats.hpp"

namespace spmvcache {
namespace {

A64fxConfig scaled_machine() {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};    // 16 KiB per core
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};  // 512 KiB per segment
    cfg.l1_prefetch = PrefetchConfig{true, 4, 8, 8};
    cfg.l2_prefetch = PrefetchConfig{true, 32, 16, 8};
    return cfg;
}

ExperimentOptions sequential_options() {
    ExperimentOptions o;
    o.machine = scaled_machine();
    o.threads = 1;
    return o;
}

// Class-2 matrix on the scaled machine: matrix data (3 MiB) streams, the
// vectors (48 KiB) fit comfortably in sector 0.
const CsrMatrix& class2_matrix() {
    static const CsrMatrix m = gen::random_uniform(2048, 2048, 128, 42);
    return m;
}

TEST(SectorSweep, BaselineSeesStreamingTraffic) {
    const auto results = run_sector_sweep(
        class2_matrix(), {SectorWays{0, 0}}, sequential_options());
    ASSERT_EQ(results.size(), 1u);
    const auto& base = results.front();
    // One iteration streams ~3 MiB of matrix data = ~12.5k lines.
    EXPECT_GT(base.l2.fills(), 10000u);
    EXPECT_LT(base.l2.fills(), 16000u);
    EXPECT_GT(base.timing.seconds, 0.0);
    EXPECT_GT(base.timing.gflops, 0.0);
}

TEST(SectorSweep, PartitioningReducesMissesForClass2) {
    const auto results = run_sector_sweep(
        class2_matrix(),
        {SectorWays{0, 0}, SectorWays{4, 0}, SectorWays{5, 0}},
        sequential_options());
    ASSERT_EQ(results.size(), 3u);
    const auto& base = results[0];
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_LT(results[i].l2.fills(), base.l2.fills())
            << "config " << i;
        EXPECT_LE(results[i].l2_miss_difference_percent(base), 0.0);
    }
}

TEST(SectorSweep, DeterministicAcrossRuns) {
    const auto a = run_sector_sweep(class2_matrix(), {SectorWays{4, 0}},
                                    sequential_options());
    const auto b = run_sector_sweep(class2_matrix(), {SectorWays{4, 0}},
                                    sequential_options());
    EXPECT_EQ(a.front().l2.fills(), b.front().l2.fills());
    EXPECT_EQ(a.front().l1.refills, b.front().l1.refills);
    EXPECT_DOUBLE_EQ(a.front().timing.seconds, b.front().timing.seconds);
}

TEST(SectorSweep, ParallelRunUsesAllSegments) {
    ExperimentOptions o = sequential_options();
    o.threads = 4;
    const auto results =
        run_sector_sweep(class2_matrix(), {SectorWays{0, 0}}, o);
    // With 4 threads on 2 segments, both segments see traffic.
    EXPECT_GT(results.front().l2.fills(), 0u);
}

TEST(SectorSweep, SpeedupDefinitionConsistent) {
    const auto results = run_sector_sweep(
        class2_matrix(), {SectorWays{0, 0}, SectorWays{5, 0}},
        sequential_options());
    const double s = results[1].speedup_over(results[0]);
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 3.0);
    EXPECT_DOUBLE_EQ(results[0].speedup_over(results[0]), 1.0);
}

TEST(ModelVsMeasured, MethodAWithinTolerance) {
    // The headline reproduction property: the reuse-distance model tracks
    // the simulator's corrected L2 miss counts. The paper reports 2-3 %
    // on hardware; we allow more slack since associativity and prefetch
    // details differ, but the model must clearly be in the right regime.
    const auto comparison = model_vs_measured(class2_matrix(), {2, 4, 6},
                                              sequential_options());
    ASSERT_EQ(comparison.measured_l2.size(), 4u);
    ASSERT_EQ(comparison.method_a.configs.size(), 4u);
    for (std::size_t i = 0; i < comparison.measured_l2.size(); ++i) {
        const double measured = comparison.measured_l2[i];
        const double predicted = comparison.method_a.configs[i].l2_misses;
        ASSERT_GT(measured, 0.0);
        EXPECT_NEAR(predicted / measured, 1.0, 0.20) << "config " << i;
    }
}

TEST(ModelVsMeasured, MethodBWithinToleranceOnUniformMatrix) {
    const auto comparison = model_vs_measured(class2_matrix(), {4},
                                              sequential_options());
    for (std::size_t i = 0; i < comparison.measured_l2.size(); ++i) {
        const double measured = comparison.measured_l2[i];
        const double predicted = comparison.method_b.configs[i].l2_misses;
        EXPECT_NEAR(predicted / measured, 1.0, 0.25) << "config " << i;
    }
}

TEST(ModelVsMeasured, ParallelCaseStaysCoherent) {
    ExperimentOptions o = sequential_options();
    o.threads = 4;
    const auto comparison = model_vs_measured(class2_matrix(), {4, 6}, o);
    for (std::size_t i = 0; i < comparison.measured_l2.size(); ++i) {
        const double measured = comparison.measured_l2[i];
        const double predicted = comparison.method_a.configs[i].l2_misses;
        ASSERT_GT(measured, 0.0);
        EXPECT_NEAR(predicted / measured, 1.0, 0.30) << "config " << i;
    }
}

TEST(ModelVsMeasured, MethodAExactOnOneSetLru) {
    // With one fully associative LRU set per L2 segment and no prefetch,
    // the simulator is the machine method (A) models, so its L2 misses
    // must equal the measured fills exactly. Both sides have to account
    // the index arrays at the same element sizes for that to hold.
    ExperimentOptions o = sequential_options();
    o.machine.l2 = CacheConfig{512 * 1024, 256, 2048, 0};
    o.machine.l1_prefetch.enabled = false;
    o.machine.l2_prefetch.enabled = false;
    const std::vector<CsrMatrix> matrices = {
        gen::stencil_2d_5pt(96, 96), gen::banded(12288, 9, 64, 5),
        gen::random_uniform(4096, 4096, 16, 11)};
    for (const CsrMatrix& m : matrices) {
        for (const std::int64_t threads : {1, 2, 4}) {
            o.threads = threads;
            const auto comparison =
                model_vs_measured(m, {512, 1024, 1536}, o);
            ASSERT_EQ(comparison.method_a.configs.size(), 4u);
            for (std::size_t i = 0; i < comparison.measured_l2.size(); ++i)
                EXPECT_EQ(comparison.method_a.configs[i].l2_misses,
                          comparison.measured_l2[i])
                    << "rows " << m.rows() << ", threads " << threads
                    << ", config " << i;
        }
    }
}

/// FNV-1a over 64-bit words (test_sweep_golden's digest).
class Fnv1a {
public:
    void add(double v) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (bits >> (8 * byte)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add(Fnv1a& h, const ModelResult& r) {
    for (const ConfigPrediction& c : r.configs) {
        h.add(c.l2_misses);
        h.add(c.l2_x_misses);
    }
    h.add(r.l1_misses);
}

TEST(ModelVsMeasured, GoldenCells) {
    // The Tables 2/3 path on the scaled machine with its prefetchers on:
    // each cell's measured counts and both methods' predictions, pinned
    // bit for bit. A drift in ExperimentOptions::model_options() moves the
    // model and the simulator together, so MethodAExactOnOneSetLru and
    // the ratio tolerances above can miss it; these digests cannot.
    struct Cell {
        CsrMatrix m;
        std::int64_t threads;
        std::uint64_t digest;
    };
    const CsrMatrix stencil = gen::stencil_2d_5pt(96, 96);
    const CsrMatrix banded = gen::banded(12288, 9, 64, 5);
    const CsrMatrix random = gen::random_uniform(4096, 4096, 16, 11);
    const std::vector<Cell> cells = {
        {stencil, 1, 0xff48aca874ae2ee1ULL},
        {stencil, 2, 0x3b970c226a8173d6ULL},
        {stencil, 4, 0xfe6cd7df12e93718ULL},
        {banded, 1, 0xecb0c7a12c7fb985ULL},
        {banded, 2, 0x51477ff8dd6b0494ULL},
        {banded, 4, 0x31667205ab6351ecULL},
        {random, 1, 0xda75ab2283042120ULL},
        {random, 2, 0x89c704e4aa38a7d1ULL},
        {random, 4, 0x657ab05785d62147ULL}};
    ExperimentOptions o = sequential_options();
    for (const Cell& cell : cells) {
        o.threads = cell.threads;
        const auto comparison = model_vs_measured(cell.m, {2, 4, 6}, o);
        ASSERT_EQ(comparison.measured_l2.size(), 4u);
        Fnv1a h;
        for (const double v : comparison.measured_l2) h.add(v);
        h.add(comparison.measured_l1_unpartitioned);
        add(h, comparison.method_a);
        add(h, comparison.method_b);
        EXPECT_EQ(h.value(), cell.digest)
            << "rows " << cell.m.rows() << ", threads " << cell.threads
            << ": 0x" << std::hex << h.value() << "ULL";
    }
}

TEST(ModelVsMeasured, StatsPopulated) {
    const auto comparison =
        model_vs_measured(class2_matrix(), {4}, sequential_options());
    EXPECT_EQ(comparison.stats.rows, 2048);
    EXPECT_DOUBLE_EQ(comparison.stats.mean_nnz_per_row, 128.0);
    EXPECT_GT(comparison.measured_l1_unpartitioned, 0.0);
    EXPECT_GT(comparison.method_a.l1_misses, 0.0);
}

TEST(Experiment, Class1MatrixSeesNoCapacityTraffic) {
    // Fits entirely in the 512 KiB L2: after warm-up the measured fills
    // are (near) zero and the model agrees.
    const CsrMatrix m = gen::stencil_2d_5pt(48, 48);
    const auto results =
        run_sector_sweep(m, {SectorWays{0, 0}}, sequential_options());
    EXPECT_LT(results.front().l2.fills(), 100u);
    EXPECT_EQ(classify(m, 512 * 1024, 512 * 1024), MatrixClass::Class1);
}

}  // namespace
}  // namespace spmvcache
