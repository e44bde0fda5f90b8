// Tests for the alternative sector policies of §3.1/§3.2.2 and for model
// option handling (partitioning policy, thread scaling) — the knobs a
// user of the model actually turns.
#include <gtest/gtest.h>

#include "model/analytic.hpp"
#include "model/method_a.hpp"
#include "sparse/gen/random.hpp"

namespace spmvcache {
namespace {

A64fxConfig scaled_machine() {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};
    return cfg;
}

// Class-3 regime on the scaled machine: x = 512 KiB does not fit any
// partition, y + rowptr another 1 MiB.
const CsrMatrix& class3_matrix() {
    static const CsrMatrix m = gen::random_uniform(65536, 65536, 16, 7);
    return m;
}

TEST(SectorPolicies, IsolatingRowptrAndYFreesRoomForX) {
    // §3.1: for class 3 "it may be better to additionally assign rowptr
    // and y to the small partition, leaving more space for x in the
    // other". With the same way split, the x misses under
    // IsolateMatrixRowptrY must not exceed those under IsolateMatrix.
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 1;
    o.l2_way_options = {4};
    o.predict_l1 = false;

    o.policy = SectorPolicy::IsolateMatrix;
    const auto isolate_matrix = run_method_a(class3_matrix(), o);
    o.policy = SectorPolicy::IsolateMatrixRowptrY;
    const auto isolate_all = run_method_a(class3_matrix(), o);

    EXPECT_LE(isolate_all.at(4).l2_x_misses,
              isolate_matrix.at(4).l2_x_misses * 1.01);
    // The streaming y/rowptr misses move into partition 1 but stay misses,
    // so total misses change only through x.
    EXPECT_LT(isolate_all.at(4).l2_misses,
              isolate_matrix.at(4).l2_misses * 1.10);
}

TEST(SectorPolicies, UnpartitionedEntryIgnoresPolicy) {
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 1;
    o.l2_way_options = {4};
    o.predict_l1 = false;
    o.policy = SectorPolicy::IsolateMatrix;
    const auto a = run_method_a(class3_matrix(), o);
    o.policy = SectorPolicy::IsolateMatrixRowptrY;
    const auto b = run_method_a(class3_matrix(), o);
    EXPECT_DOUBLE_EQ(a.at(0).l2_misses, b.at(0).l2_misses);
}

TEST(ModelOptions, PartitionPolicyAffectsSegmentShares) {
    // A heavily skewed matrix: balanced-nonzeros moves rows between the
    // two segments, changing per-segment streaming shares but not the
    // total matrix-data misses.
    const CsrMatrix m = gen::random_variable_rows(32768, 32768, 24, 2.0, 3);
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 4;
    o.l2_way_options = {4};
    o.predict_l1 = false;
    o.partition = PartitionPolicy::BalancedRows;
    const auto rows = run_method_a(m, o);
    o.partition = PartitionPolicy::BalancedNonzeros;
    const auto nnz = run_method_a(m, o);
    const auto stream = streaming_misses(m.rows(), m.nnz(), 256);
    EXPECT_NEAR(nnz.at(4).l2_misses, rows.at(4).l2_misses,
                0.10 * static_cast<double>(stream.total()));
}

TEST(ModelOptions, RejectsInvalidWayCounts) {
    ModelOptions o;
    o.machine = scaled_machine();
    o.l2_way_options = {16};  // sector 0 must keep at least one way
    EXPECT_THROW(run_method_a(class3_matrix(), o), ContractViolation);
    o.l2_way_options = {0};
    EXPECT_THROW(run_method_a(class3_matrix(), o), ContractViolation);
}

TEST(ModelOptions, RejectsMoreThreadsThanCores) {
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 5;  // machine has 4 cores
    EXPECT_THROW(run_method_a(class3_matrix(), o), ContractViolation);
}

TEST(ModelSeconds, ReportedPositive) {
    ModelOptions o;
    o.machine = scaled_machine();
    o.threads = 1;
    o.l2_way_options = {4};
    o.predict_l1 = false;
    const auto result = run_method_a(class3_matrix(), o);
    EXPECT_GT(result.seconds, 0.0);
}

}  // namespace
}  // namespace spmvcache
