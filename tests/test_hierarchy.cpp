// Integration tests for the multi-core memory hierarchy: counter
// semantics, NUMA segment routing, write-back paths, prefetch accounting,
// and the PMU correction formulas of §4.3/§4.4.
#include <gtest/gtest.h>

#include "cachesim/hierarchy.hpp"

namespace spmvcache {
namespace {

// Two cores per segment, two segments, small caches, prefetch off unless
// stated: keeps behaviour exactly predictable.
A64fxConfig small_machine(bool prefetch = false) {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{4 * 2 * 16, 16, 2, 0};   // 4 sets x 2 ways
    cfg.l2 = CacheConfig{8 * 4 * 16, 16, 4, 0};   // 8 sets x 4 ways
    cfg.l1_prefetch = PrefetchConfig{prefetch, 4, 4, 8};
    cfg.l2_prefetch = PrefetchConfig{prefetch, 8, 4, 8};
    return cfg;
}

TEST(Hierarchy, ColdMissFillsBothLevels) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 100, 0, false);
    const auto l1 = sim.l1_total();
    const auto l2 = sim.l2_total();
    EXPECT_EQ(l1.accesses, 1u);
    EXPECT_EQ(l1.hits, 0u);
    EXPECT_EQ(l1.refills, 1u);
    EXPECT_EQ(l2.demand_accesses, 1u);
    EXPECT_EQ(l2.demand_fills, 1u);
    EXPECT_EQ(l2.fills(), 1u);
}

TEST(Hierarchy, RepeatHitsInL1Only) {
    MemoryHierarchy sim(small_machine());
    for (int i = 0; i < 5; ++i) sim.demand_access(0, 100, 0, false);
    const auto l1 = sim.l1_total();
    const auto l2 = sim.l2_total();
    EXPECT_EQ(l1.accesses, 5u);
    EXPECT_EQ(l1.hits, 4u);
    EXPECT_EQ(l2.demand_accesses, 1u);
}

TEST(Hierarchy, L1EvictionStillHitsL2) {
    MemoryHierarchy sim(small_machine());
    // L1 has 2 ways x 4 sets: lines 0, 4, 8 share L1 set 0 (line % 4) and
    // L2 set (line % 8) 0, 4, 0 -> L2 set 0 has 4 ways, all fit.
    sim.demand_access(0, 0, 0, false);
    sim.demand_access(0, 4, 0, false);
    sim.demand_access(0, 8, 0, false);  // evicts line 0 from L1
    sim.demand_access(0, 0, 0, false);  // L1 miss, L2 hit
    const auto l2 = sim.l2_total();
    EXPECT_EQ(l2.demand_accesses, 4u);
    EXPECT_EQ(l2.demand_hits, 1u);
    EXPECT_EQ(l2.demand_fills, 3u);
}

TEST(Hierarchy, CoresRouteToTheirNumaSegment) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 7, 0, false);   // cores 0,1 -> segment 0
    sim.demand_access(3, 7, 0, false);   // cores 2,3 -> segment 1
    EXPECT_EQ(sim.l2_segment(0).demand_fills, 1u);
    EXPECT_EQ(sim.l2_segment(1).demand_fills, 1u);
    // Shared data is replicated per segment (§3.1's observation).
    EXPECT_TRUE(sim.l2_cache(0).contains(7));
    EXPECT_TRUE(sim.l2_cache(1).contains(7));
}

TEST(Hierarchy, PrivateL1PerCore) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 7, 0, false);
    sim.demand_access(1, 7, 0, false);  // same segment, own L1 -> L2 hit
    const auto l2 = sim.l2_segment(0);
    EXPECT_EQ(l2.demand_fills, 1u);
    EXPECT_EQ(l2.demand_hits, 1u);
    EXPECT_EQ(sim.l1_total().refills, 2u);
}

TEST(Hierarchy, DirtyL1EvictionWritesBackToL2) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 0, 0, /*write=*/true);
    sim.demand_access(0, 4, 0, false);
    sim.demand_access(0, 8, 0, false);  // evicts dirty line 0 from L1
    EXPECT_EQ(sim.l1_total().writebacks, 1u);
    // L2 still has line 0; evict it from L2 and expect a memory writeback.
    // L2 set 0 currently: 0, 8 (4 ways) - fill more set-0 lines.
    for (std::uint64_t line : {16, 24, 32, 40})
        sim.demand_access(0, line, 0, false);
    EXPECT_GE(sim.l2_total().writebacks, 1u);
}

TEST(Hierarchy, CounterResetKeepsCacheContents) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 100, 0, false);
    sim.reset_counters();
    sim.demand_access(0, 100, 0, false);
    const auto l1 = sim.l1_total();
    EXPECT_EQ(l1.accesses, 1u);
    EXPECT_EQ(l1.hits, 1u);
    EXPECT_EQ(sim.l2_total().demand_accesses, 0u);
}

TEST(Hierarchy, SegmentCounterResetLeavesOtherSegments) {
    MemoryHierarchy sim(small_machine());
    for (std::uint32_t core = 0; core < 4; ++core)
        sim.demand_access(core, 100 + core, 0, false);
    sim.reset_segment_counters(0);  // cores 0 and 1
    EXPECT_EQ(sim.l2_segment(0).demand_accesses, 0u);
    EXPECT_EQ(sim.l2_segment(1).demand_accesses, 2u);
    EXPECT_EQ(sim.core_counters(1).demand_accesses, 0u);
    EXPECT_EQ(sim.core_counters(2).demand_accesses, 1u);
    EXPECT_EQ(sim.l1_total().accesses, 2u);
    // Cache contents survive: core 0's line still hits.
    sim.demand_access(0, 100, 0, false);
    EXPECT_EQ(sim.l1_total().hits, 1u);
}

TEST(Hierarchy, PrefetchFillsCountedSeparately) {
    MemoryHierarchy sim(small_machine(/*prefetch=*/true));
    // A sequential stream: the L2 prefetcher should run ahead.
    for (std::uint64_t line = 0; line < 16; ++line)
        sim.demand_access(0, line, 0, false);
    const auto l2 = sim.l2_total();
    EXPECT_GT(l2.prefetch_fills, 0u);
    // Demand accesses that land on prefetched lines count as swaps and do
    // not refetch from memory.
    EXPECT_GT(l2.swap_dm, 0u);
    // The corrected miss count never exceeds the total touched lines plus
    // the combined prefetch frontier (the L2 prefetcher trains on L1
    // prefetch requests and runs its distance ahead of them).
    EXPECT_LE(l2.fills(), 16u + sim.config().l1_prefetch.distance +
                              sim.config().l2_prefetch.distance);
    // Raw REFILL minus SWAP minus PRF equals fills (the paper's formula).
    EXPECT_EQ(l2.refill_raw() - l2.swap_dm - l2.prefetch_fills, l2.fills());
}

TEST(Hierarchy, PrefetchReducesDemandMisses) {
    MemoryHierarchy no_pf(small_machine(false));
    MemoryHierarchy pf(small_machine(true));
    for (std::uint64_t line = 0; line < 64; ++line) {
        no_pf.demand_access(0, line, 0, false);
        pf.demand_access(0, line, 0, false);
    }
    EXPECT_LT(pf.l2_total().demand_misses(),
              no_pf.l2_total().demand_misses());
}

TEST(Hierarchy, SmallSectorCausesPrematurePrefetchEvictions) {
    // The §4.3 effect in miniature: two interleaved sector-1 streams, a
    // 1-way sector and a prefetch distance deeper than the sector can
    // hold -> prefetched lines die before first use.
    A64fxConfig cfg = small_machine(true);
    cfg.l2_prefetch.distance = 16;
    MemoryHierarchy sim(cfg);
    sim.set_sector_ways(SectorWays{1, 0});
    for (std::uint64_t i = 0; i < 64; ++i) {
        sim.demand_access(0, 1000 + i, 1, false);
        sim.demand_access(0, 5000 + i, 1, false);
    }
    EXPECT_GT(sim.l2_total().prefetch_unused_evictions, 0u);
}

TEST(Hierarchy, SectorReconfigurationAppliesToAllCaches) {
    MemoryHierarchy sim(small_machine());
    sim.set_sector_ways(SectorWays{2, 1});
    EXPECT_EQ(sim.l1_cache(0).config().sector1_ways, 1u);
    EXPECT_EQ(sim.l1_cache(3).config().sector1_ways, 1u);
    EXPECT_EQ(sim.l2_cache(1).config().sector1_ways, 2u);
}

TEST(Hierarchy, MemoryBytesFormulaCountsFillsAndWritebacks) {
    MemoryHierarchy sim(small_machine());
    sim.demand_access(0, 0, 0, false);
    sim.demand_access(0, 8, 0, false);
    const auto l2 = sim.l2_total();
    EXPECT_EQ(l2.memory_bytes(16), 2u * 16);
}

TEST(Hierarchy, RejectsOutOfRangeCore) {
    MemoryHierarchy sim(small_machine());
    EXPECT_THROW(sim.demand_access(99, 0, 0, false), ContractViolation);
}

}  // namespace
}  // namespace spmvcache
