// Differential tests for host-parallel sharded model execution: for the
// generator suite and every partition policy, parallel method (A)
// (jobs in {1, 2, 4}) must produce bit-identical ConfigPrediction miss
// counts to the serial path; method (B)'s sharded trace pass is held to
// the same standard. Miss counts are integers stored in doubles, so
// EXPECT_EQ really is bit-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "sparse/csr.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/block.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"
#include "trace/sample.hpp"
#include "trace/spmv_trace.hpp"

namespace spmvcache {
namespace {

/// Scaled machine with 4 L2 segments (8 cores, 2 per NUMA domain) so that
/// a full-thread run shards 4 ways.
A64fxConfig sharded_machine() {
    A64fxConfig cfg;
    cfg.cores = 8;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};
    return cfg;
}

struct NamedMatrix {
    std::string name;
    CsrMatrix matrix;
};

const std::vector<NamedMatrix>& generator_suite() {
    static const std::vector<NamedMatrix>* suite = [] {
        auto* s = new std::vector<NamedMatrix>;
        s->push_back({"banded", gen::banded(768, 8, 24, 11)});
        s->push_back({"stencil", gen::stencil_2d_5pt(48, 48)});
        s->push_back({"rmat", gen::rmat(9, 4096, 12)});
        s->push_back({"block", gen::block_fem(48, 4, 3, 8, 13)});
        return s;
    }();
    return *suite;
}

ModelOptions base_options(PartitionPolicy policy, std::int64_t jobs) {
    ModelOptions o;
    o.machine = sharded_machine();
    o.threads = o.machine.cores;  // 4 segments -> 4 shards
    o.l2_way_options = {2, 4, 6};
    o.predict_l1 = true;
    o.partition = policy;
    o.jobs = jobs;
    return o;
}

void expect_identical(const ModelResult& serial, const ModelResult& parallel,
                      const std::string& label) {
    ASSERT_EQ(serial.configs.size(), parallel.configs.size()) << label;
    for (std::size_t i = 0; i < serial.configs.size(); ++i) {
        EXPECT_EQ(serial.configs[i].l2_sector_ways,
                  parallel.configs[i].l2_sector_ways)
            << label << " config " << i;
        EXPECT_EQ(serial.configs[i].l2_misses, parallel.configs[i].l2_misses)
            << label << " config " << i;
        EXPECT_EQ(serial.configs[i].l2_x_misses,
                  parallel.configs[i].l2_x_misses)
            << label << " config " << i;
    }
    EXPECT_EQ(serial.l1_misses, parallel.l1_misses) << label;
    EXPECT_EQ(serial.l1_x_misses, parallel.l1_x_misses) << label;
    EXPECT_EQ(serial.x_traffic_fraction, parallel.x_traffic_fraction)
        << label;
}

class ModelParallelTest
    : public testing::TestWithParam<PartitionPolicy> {};

TEST_P(ModelParallelTest, MethodAOlkenMatchesSerialForAllJobCounts) {
    for (const auto& [name, m] : generator_suite()) {
        const auto serial =
            run_method_a(m, base_options(GetParam(), /*jobs=*/1));
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            const auto parallel =
                run_method_a(m, base_options(GetParam(), jobs));
            expect_identical(serial, parallel,
                             name + " exact jobs=" + std::to_string(jobs));
        }
    }
}

TEST_P(ModelParallelTest, MethodBMatchesSerialForAllJobCounts) {
    for (const auto& [name, m] : generator_suite()) {
        const auto serial =
            run_method_b(m, base_options(GetParam(), /*jobs=*/1));
        for (const std::int64_t jobs : {std::int64_t{2}, std::int64_t{4}}) {
            const auto parallel =
                run_method_b(m, base_options(GetParam(), jobs));
            expect_identical(serial, parallel,
                             name + " methodB jobs=" + std::to_string(jobs));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ModelParallelTest,
    testing::Values(PartitionPolicy::BalancedRows,
                    PartitionPolicy::BalancedNonzeros),
    [](const testing::TestParamInfo<PartitionPolicy>& info) {
        return info.param == PartitionPolicy::BalancedRows
                   ? "BalancedRows"
                   : "BalancedNonzeros";
    });

// ---- Golden predictions ---------------------------------------------------
// One digest per cell of matrix x {A/exact, B} x partition policy x
// {exact, R = 0.1}, recorded from the implementation that kept a
// packed replay and a per-reference streaming replay side by side,
// priced every capacity from Olken's full reuse distances and replayed a
// warm-up iteration before the counted one. The one streamed pass and
// its period close must reproduce them bit for bit, and so must 64-bit
// index storage, because the golden runs pin the paper's (4, 8) index
// accounting.

constexpr double kGoldenRate = 0.1;

struct GoldenCell {
    const char* key;
    std::uint64_t exact, sampled;  ///< digests at R = 1 and R = kGoldenRate
};

constexpr GoldenCell kGolden[] = {
    {"banded/A-exact/rows", 0x8d8e60cbc6c1cd84ULL, 0xe5ca9f067bc84591ULL},
    {"banded/B/rows", 0x8d8e60cbc6c1cd84ULL, 0x6fdd73db1a0e910cULL},
    {"banded/A-exact/nonzeros", 0x8d8e60cbc6c1cd84ULL, 0xe5ca9f067bc84591ULL},
    {"banded/B/nonzeros", 0x8d8e60cbc6c1cd84ULL, 0x6fdd73db1a0e910cULL},
    {"stencil/A-exact/rows", 0x28ef1cc134990433ULL, 0xc94c7e492dc130d5ULL},
    {"stencil/B/rows", 0xdcfddd74f5cd78f3ULL, 0x0cb3aa3e02e85921ULL},
    {"stencil/A-exact/nonzeros", 0x8c2d80b2087eaf09ULL, 0xc94c7e492dc130d5ULL},
    {"stencil/B/nonzeros", 0xcbde906f6ca1e82aULL, 0x3416ea01346e4af9ULL},
    {"rmat/A-exact/rows", 0x7d811a085c636e6bULL, 0x9bd3743dc5479ccdULL},
    {"rmat/B/rows", 0xeea99fbcea28e4a3ULL, 0x9bd3743dc5479ccdULL},
    {"rmat/A-exact/nonzeros", 0xeea99fbcea28e4a3ULL, 0x9bd3743dc5479ccdULL},
    {"rmat/B/nonzeros", 0xeea99fbcea28e4a3ULL, 0x9bd3743dc5479ccdULL},
    {"block/A-exact/rows", 0xadea084b1b7dae3cULL, 0x4ee2efdaf8073ef5ULL},
    {"block/B/rows", 0xadea084b1b7dae3cULL, 0x4ee2efdaf8073ef5ULL},
    {"block/A-exact/nonzeros", 0xadea084b1b7dae3cULL, 0x4ee2efdaf8073ef5ULL},
    {"block/B/nonzeros", 0xadea084b1b7dae3cULL, 0x4ee2efdaf8073ef5ULL},
    {"spill/A-exact/rows", 0xc5c2d1c75afb58fdULL, 0x0fc832d52ab81effULL},
    {"spill/B/rows", 0x32cd9adde1e7db3dULL, 0xd9f9a2ed8c8517f0ULL},
    {"spill/A-exact/nonzeros", 0x4fc71f3bf225ea1fULL, 0x9e4e6a0a08284779ULL},
    {"spill/B/nonzeros", 0x139fee1e78215a10ULL, 0x732d01c8edffc091ULL},
};

std::uint64_t golden_digest(const std::string& key, double rate) {
    for (const GoldenCell& cell : kGolden)
        if (key == cell.key) return rate < 1.0 ? cell.sampled : cell.exact;
    ADD_FAILURE() << "no golden digest for " << key;
    return 0;
}

/// Order-sensitive digest of every prediction the golden cells pin.
std::uint64_t prediction_digest(const ModelResult& r) {
    std::uint64_t h = 0;
    const auto mix = [&h](std::uint64_t v) { h = sample_hash(h ^ v); };
    for (const ConfigPrediction& c : r.configs) {
        mix(c.l2_sector_ways);
        mix(std::bit_cast<std::uint64_t>(c.l2_misses));
        mix(std::bit_cast<std::uint64_t>(c.l2_x_misses));
    }
    mix(std::bit_cast<std::uint64_t>(r.l1_misses));
    mix(std::bit_cast<std::uint64_t>(r.l1_x_misses));
    mix(r.sampled_refs);
    return h;
}

std::string describe(const ModelResult& r) {
    std::ostringstream out;
    out.precision(17);
    for (const ConfigPrediction& c : r.configs)
        out << "\n  ways " << c.l2_sector_ways << ": l2_misses " << c.l2_misses
            << ", l2_x_misses " << c.l2_x_misses;
    out << "\n  l1_misses " << r.l1_misses << ", l1_x_misses "
        << r.l1_x_misses << ", sampled_refs " << r.sampled_refs;
    return out.str();
}

ModelResult run_golden_cell(const AnyCsrView& m, const std::string& method,
                            const ModelOptions& options) {
    return method == "B" ? run_method_b(m, options)
                         : run_method_a(m, options);
}

/// The suite plus one matrix that spills every segment's L2: the suite's
/// matrices fit the scaled machine's L2, so their cells pin only the L1
/// predictions and reference counts.
std::vector<NamedMatrix> golden_matrices() {
    std::vector<NamedMatrix> matrices = generator_suite();
    matrices.push_back(
        {"spill", gen::random_variable_rows(12000, 12000, 12.0, 1.0, 17)});
    return matrices;
}

TEST(ModelParallel, GoldenPredictionsHoldAtBothWidths) {
    for (const auto& [name, m] : golden_matrices()) {
        const CsrMatrix64 wide = convert_csr_width<Idx64>(CsrView(m));
        for (const PartitionPolicy policy :
             {PartitionPolicy::BalancedRows,
              PartitionPolicy::BalancedNonzeros}) {
            for (const std::string method : {"A-exact", "B"}) {
                const std::string key =
                    name + "/" + method + "/" +
                    (policy == PartitionPolicy::BalancedRows ? "rows"
                                                             : "nonzeros");
                for (const double rate : {1.0, kGoldenRate}) {
                    const std::uint64_t expected = golden_digest(key, rate);
                    ModelOptions o = base_options(policy, /*jobs=*/1);
                    o.paper_accounting = true;
                    o.sample_rate = rate;
                    for (const AnyCsrView& storage :
                         {AnyCsrView(m), AnyCsrView(wide)}) {
                        const ModelResult r =
                            run_golden_cell(storage, method, o);
                        const std::string label =
                            key + " R=" + std::to_string(rate) +
                            (storage.index_width() == IndexWidth::W64
                                 ? " W64"
                                 : " W32");
                        EXPECT_EQ(prediction_digest(r), expected)
                            << label << describe(r);
                        for (const ShardStats& shard : r.shards)
                            EXPECT_TRUE(shard.packed_replay)
                                << label << " shard " << shard.segment;
                    }
                }
            }
        }
    }
}

TEST(ModelParallel, ShardInstrumentationIsConsistent) {
    const auto& m = generator_suite().front().matrix;
    for (const std::int64_t jobs : {std::int64_t{1}, std::int64_t{4}}) {
        for (const bool use_b : {false, true}) {
            const auto options =
                base_options(PartitionPolicy::BalancedRows, jobs);
            const ModelResult result =
                use_b ? run_method_b(m, options) : run_method_a(m, options);
            ASSERT_EQ(result.shards.size(), 4u);
            std::uint64_t refs = 0;
            for (std::size_t s = 0; s < result.shards.size(); ++s) {
                EXPECT_EQ(result.shards[s].segment,
                          static_cast<std::int64_t>(s));
                EXPECT_EQ(result.shards[s].threads, 2);
                refs += result.shards[s].references;
            }
            // Every shard replays exactly its slice of the derived trace.
            EXPECT_EQ(refs, spmv_trace_length(m.rows(), m.nnz()));
            EXPECT_EQ(result.jobs, std::min<std::int64_t>(jobs, 4));
        }
    }
}

TEST(ModelParallel, SingleSegmentRunsSerially) {
    // threads <= cores_per_numa: one shard only, any jobs value is safe.
    const auto& m = generator_suite().front().matrix;
    ModelOptions o = base_options(PartitionPolicy::BalancedRows, 8);
    o.threads = 2;  // exactly one segment
    const auto result = run_method_a(m, o);
    EXPECT_EQ(result.shards.size(), 1u);
    EXPECT_EQ(result.jobs, 1);
}

TEST(ModelParallel, DefaultJobsUsesHardwareConcurrency) {
    const auto& m = generator_suite().front().matrix;
    ModelOptions o = base_options(PartitionPolicy::BalancedRows, 0);
    const auto serial = run_method_a(m, base_options(
        PartitionPolicy::BalancedRows, 1));
    const auto parallel = run_method_a(m, o);
    EXPECT_GE(parallel.jobs, 1);
    expect_identical(serial, parallel, "default jobs");
}

}  // namespace
}  // namespace spmvcache
