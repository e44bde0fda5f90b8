// Property and fuzz tests: invariants that must hold for arbitrary
// inputs — layout geometry, trace length, sector-cache quota enforcement,
// hierarchy counter identities, and simulator determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/partition.hpp"
#include "trace/spmv_trace.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

// ---- Layout properties over a parameter sweep ---------------------------

class LayoutProperty
    : public testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::uint64_t>> {};

TEST_P(LayoutProperty, ArraysAreContiguousAndDisjoint) {
    const auto [rows, nnz, line_bytes] = GetParam();
    const SpmvLayout layout(rows, rows, nnz, line_bytes);
    std::uint64_t cursor = 0;
    for (int o = 0; o < kDataObjectCount; ++o) {
        const auto object = static_cast<DataObject>(o);
        EXPECT_EQ(layout.base(object), cursor);
        cursor += layout.lines_of(object);
    }
    EXPECT_EQ(layout.total_lines(), cursor);
}

TEST_P(LayoutProperty, LineSizesMatchElementCounts) {
    const auto [rows, nnz, line_bytes] = GetParam();
    const SpmvLayout layout(rows, rows, nnz, line_bytes);
    const auto lines = [&](std::uint64_t elems, std::uint64_t size) {
        return (elems * size + line_bytes - 1) / line_bytes;
    };
    EXPECT_EQ(layout.lines_of(DataObject::X),
              lines(static_cast<std::uint64_t>(rows), 8));
    EXPECT_EQ(layout.lines_of(DataObject::Values),
              lines(static_cast<std::uint64_t>(nnz), 8));
    EXPECT_EQ(layout.lines_of(DataObject::ColIdx),
              lines(static_cast<std::uint64_t>(nnz), 4));
    EXPECT_EQ(layout.lines_of(DataObject::RowPtr),
              lines(static_cast<std::uint64_t>(rows) + 1, 8));
}

TEST_P(LayoutProperty, ObjectOfInvertsEveryBoundary) {
    const auto [rows, nnz, line_bytes] = GetParam();
    const SpmvLayout layout(rows, rows, nnz, line_bytes);
    for (int o = 0; o < kDataObjectCount; ++o) {
        const auto object = static_cast<DataObject>(o);
        if (layout.lines_of(object) == 0) continue;
        EXPECT_EQ(layout.object_of(layout.base(object)), object);
        EXPECT_EQ(layout.object_of(layout.base(object) +
                                   layout.lines_of(object) - 1),
                  object);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayoutProperty,
    testing::Values(std::make_tuple(1, 1, 16),
                    std::make_tuple(7, 13, 16),
                    std::make_tuple(100, 5000, 64),
                    std::make_tuple(4096, 65536, 256),
                    std::make_tuple(31, 997, 256),
                    std::make_tuple(1000000, 1000000, 256)));

// ---- Trace properties ----------------------------------------------------

class TraceProperty : public testing::TestWithParam<std::int64_t> {};

TEST_P(TraceProperty, LengthAndThreadOwnership) {
    const std::int64_t threads = GetParam();
    const CsrMatrix m = gen::random_uniform(97, 97, 5, 11);
    const SpmvLayout layout(m, 256);
    const RowPartition partition(m, threads,
                                 PartitionPolicy::BalancedRows);

    std::uint64_t count = 0;
    bool thread_in_range = true;
    std::vector<std::uint64_t> per_thread(
        static_cast<std::size_t>(threads), 0);
    generate_spmv_trace(m, layout, TraceConfig{threads},
                        [&](const MemRef& ref) {
                            ++count;
                            if (ref.thread >= threads) thread_in_range = false;
                            else ++per_thread[ref.thread];
                        });
    EXPECT_EQ(count, spmv_trace_length(m.rows(), m.nnz()));
    EXPECT_TRUE(thread_in_range);
    // Each thread emits exactly the references of its rows.
    const auto rowptr = m.rowptr();
    for (std::int64_t t = 0; t < threads; ++t) {
        const auto& range = partition.range(t);
        const std::int64_t rows = range.size();
        const std::int64_t nnz =
            rowptr[static_cast<std::size_t>(range.end)] -
            rowptr[static_cast<std::size_t>(range.begin)];
        EXPECT_EQ(per_thread[static_cast<std::size_t>(t)],
                  spmv_trace_length(rows, nnz))
            << "thread " << t;
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TraceProperty,
                         testing::Values(1, 2, 3, 7, 16, 48, 97, 200));

// ---- RowPartition balance properties --------------------------------------

/// Matrices that stress the partition boundaries: trailing/leading empty
/// rows, one huge row spanning several shares, skewed tails, and the
/// all-empty matrix.
std::vector<std::pair<std::string, CsrMatrix>> partition_corpus() {
    std::vector<std::pair<std::string, CsrMatrix>> corpus;
    corpus.emplace_back("uniform", gen::random_uniform(211, 211, 6, 3));
    corpus.emplace_back("skewed",
                        gen::random_variable_rows(211, 211, 5.0, 2.5, 5));
    {
        CsrBuilder b(100, 100);  // nonzeros only in the first 10 rows
        for (std::int64_t r = 0; r < 10; ++r)
            for (std::int32_t c = 0; c < 20; ++c)
                b.push(r, c, 1.0);
        corpus.emplace_back("trailing_empty", std::move(b).finish());
    }
    {
        CsrBuilder b(100, 100);  // nonzeros only in the last 5 rows
        for (std::int64_t r = 95; r < 100; ++r)
            for (std::int32_t c = 0; c < 8; ++c)
                b.push(r, c, 1.0);
        corpus.emplace_back("leading_empty", std::move(b).finish());
    }
    {
        CsrBuilder b(50, 100);  // one row holds ~95% of the nonzeros
        for (std::int32_t c = 0; c < 95; ++c) b.push(20, c, 1.0);
        for (std::int64_t r = 21; r < 26; ++r)
            b.push(r, 0, 1.0);
        corpus.emplace_back("huge_row", std::move(b).finish());
    }
    {
        CsrBuilder b(40, 40);
        corpus.emplace_back("all_empty", std::move(b).finish());
    }
    return corpus;
}

class PartitionProperty : public testing::TestWithParam<std::int64_t> {};

TEST_P(PartitionProperty, RangesAreContiguousAndCoverAllRows) {
    const std::int64_t threads = GetParam();
    for (const auto& [name, m] : partition_corpus()) {
        for (const PartitionPolicy policy :
             {PartitionPolicy::BalancedRows,
              PartitionPolicy::BalancedNonzeros}) {
            const RowPartition partition(m, threads, policy);
            ASSERT_EQ(partition.threads(), threads) << name;
            std::int64_t cursor = 0;
            for (std::int64_t t = 0; t < threads; ++t) {
                const auto& range = partition.range(t);
                EXPECT_EQ(range.begin, cursor) << name << " thread " << t;
                EXPECT_LE(range.begin, range.end) << name << " thread " << t;
                cursor = range.end;
            }
            EXPECT_EQ(cursor, m.rows()) << name;
        }
    }
}

TEST_P(PartitionProperty, NonzeroBalanceWithinOneRow) {
    // The nonzero-balanced policy can only miss the ideal share by the
    // one row that straddles each boundary (plus integer rounding): for
    // every range, |nnz(range) - nnz/threads| <= max_row_nnz + 1.
    const std::int64_t threads = GetParam();
    for (const auto& [name, m] : partition_corpus()) {
        const RowPartition partition(m, threads,
                                     PartitionPolicy::BalancedNonzeros);
        const auto rowptr = m.rowptr();
        std::int64_t max_row = 0;
        for (std::int64_t r = 0; r < m.rows(); ++r)
            max_row = std::max(
                max_row,
                static_cast<std::int64_t>(
                    rowptr[static_cast<std::size_t>(r) + 1]) -
                    static_cast<std::int64_t>(
                        rowptr[static_cast<std::size_t>(r)]));
        const double ideal = static_cast<double>(m.nnz()) /
                             static_cast<double>(threads);
        const auto per_thread = partition.nnz_per_thread(m);
        for (std::size_t t = 0; t < per_thread.size(); ++t) {
            EXPECT_LE(
                std::abs(static_cast<double>(per_thread[t]) - ideal),
                static_cast<double>(max_row) + 1.0)
                << name << " thread " << t << " of " << threads;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PartitionProperty,
                         testing::Values(1, 2, 3, 5, 8, 16, 33, 101));

// ---- Sector cache fuzzing -------------------------------------------------

class SectorQuotaFuzz : public testing::TestWithParam<std::uint32_t> {};

TEST_P(SectorQuotaFuzz, OccupancyNeverExceedsQuotaPerSet) {
    // Each line keeps a consistent sector (as when the sector is derived
    // from the data object); hits then never re-tag, and the quota is
    // enforced purely through victim selection at fill time.
    const std::uint32_t sector1_ways = GetParam();
    const CacheConfig config{8 * 4 * 16, 16, 4, sector1_ways};
    SectorCache cache(config);
    Xoshiro256 rng(1234 + sector1_ways);
    for (int step = 0; step < 50000; ++step) {
        const std::uint64_t line = rng.bounded(512);
        const int sector = static_cast<int>(line % 2);
        const bool write = rng.uniform() < 0.2;
        if (!cache.lookup(line, sector, write).hit)
            cache.fill(line, sector, write, rng.uniform() < 0.3);
    }
    // With a quota of q ways over 8 sets, sector 1 holds at most 8*q
    // lines (and sector 0 at most 8*(4-q)).
    EXPECT_LE(cache.occupancy(1),
              static_cast<std::uint64_t>(8) * sector1_ways);
    EXPECT_LE(cache.occupancy(0),
              static_cast<std::uint64_t>(8) * (4 - sector1_ways));
}

TEST(SectorQuota, ReTaggingHitsMayTransientlyExceedQuota) {
    // A hit with a different sector ID re-tags the line in place (as on
    // the A64FX, where the sector rides on every memory operation); the
    // quota is re-established by subsequent fills, not by the hit itself.
    SectorCache cache(CacheConfig{4 * 4 * 16, 16, 4, 1});
    cache.fill(0, 0, false, false);
    cache.fill(4, 0, false, false);
    EXPECT_TRUE(cache.lookup(0, 1, false).hit);
    EXPECT_TRUE(cache.lookup(4, 1, false).hit);
    EXPECT_EQ(cache.occupancy(1), 2u);  // over the 1-way quota, transiently
    // The next sector-1 fill to the set evicts within sector 1.
    cache.fill(8, 1, false, false);
    EXPECT_LE(cache.occupancy(1), 2u);
    EXPECT_TRUE(cache.contains(8));
}

INSTANTIATE_TEST_SUITE_P(Quotas, SectorQuotaFuzz, testing::Values(1u, 2u, 3u));

TEST(SectorQuotaFuzz, ReconfigurationConvergesToNewQuota) {
    SectorCache cache(CacheConfig{8 * 4 * 16, 16, 4, 3});
    Xoshiro256 rng(5);
    auto churn = [&](int steps) {
        for (int i = 0; i < steps; ++i) {
            const std::uint64_t line = rng.bounded(256);
            const int sector = static_cast<int>(rng.bounded(2));
            if (!cache.lookup(line, sector, false).hit)
                cache.fill(line, sector, false, false);
        }
    };
    churn(20000);
    cache.set_sector1_ways(1);
    churn(20000);  // future fills respect the new quota
    EXPECT_LE(cache.occupancy(1), 8u * 1u);
}

// ---- Hierarchy counter identities -----------------------------------------

TEST(HierarchyInvariants, CounterIdentitiesUnderRandomTraffic) {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{4 * 2 * 16, 16, 2, 0};
    cfg.l2 = CacheConfig{8 * 4 * 16, 16, 4, 1};
    MemoryHierarchy sim(cfg);
    sim.set_sector_ways(SectorWays{1, 1});
    Xoshiro256 rng(99);
    for (int step = 0; step < 100000; ++step) {
        const auto core = static_cast<std::uint32_t>(rng.bounded(4));
        const std::uint64_t line = rng.bounded(4096);
        const int sector = static_cast<int>(rng.bounded(2));
        sim.demand_access(core, line, sector, rng.uniform() < 0.25);
    }
    const auto l1 = sim.l1_total();
    const auto l2 = sim.l2_total();
    EXPECT_EQ(l1.hits + l1.refills, l1.accesses);
    EXPECT_EQ(l2.demand_hits + l2.demand_fills, l2.demand_accesses);
    // Every L1 demand refill is one L2 demand access.
    EXPECT_EQ(l1.refills, l2.demand_accesses);
    // Swaps are a subset of demand hits.
    EXPECT_LE(l2.swap_dm, l2.demand_hits);
    // The PMU correction formula recovers the fill count.
    EXPECT_EQ(l2.refill_raw() - l2.swap_dm - l2.prefetch_fills, l2.fills());
}

TEST(HierarchyInvariants, DeterministicUnderIdenticalTraffic) {
    auto run = [] {
        A64fxConfig cfg;
        cfg.cores = 2;
        cfg.cores_per_numa = 2;
        cfg.l1 = CacheConfig{4 * 2 * 16, 16, 2, 1};
        cfg.l2 = CacheConfig{8 * 4 * 16, 16, 4, 2};
        MemoryHierarchy sim(cfg);
        Xoshiro256 rng(7);
        for (int step = 0; step < 50000; ++step) {
            sim.demand_access(static_cast<std::uint32_t>(rng.bounded(2)),
                              rng.bounded(2048),
                              static_cast<int>(rng.bounded(2)),
                              rng.uniform() < 0.5);
        }
        const auto l2 = sim.l2_total();
        return std::make_tuple(sim.l1_total().refills, l2.fills(),
                               l2.writebacks, l2.swap_dm);
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace spmvcache
