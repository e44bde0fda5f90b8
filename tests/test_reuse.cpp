// Unit and property tests for the reuse-distance engines and miss
// counters: the naive stack is the executable definition; Olken must agree
// with it exactly, Kim approximately at group granularity, and the
// capacity stack with Olken on every comparison against a priced
// capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "reuse/capacity_stack.hpp"
#include "reuse/flat_map.hpp"
#include "reuse/histogram.hpp"
#include "reuse/kim.hpp"
#include "reuse/naive.hpp"
#include "reuse/olken.hpp"
#include "trace/sample.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

TEST(FlatMap, PutFindOverwrite) {
    FlatMap64 map;
    EXPECT_EQ(map.find(42), nullptr);
    map.put(42, 1);
    map.put(0, 2);  // zero key is valid
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 1u);
    map.put(42, 9);
    EXPECT_EQ(*map.find(42), 9u);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, GrowsPastInitialCapacity) {
    FlatMap64 map(4);
    for (std::uint64_t k = 0; k < 10000; ++k) map.put(k * 3, k);
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(map.find(k * 3), nullptr);
        EXPECT_EQ(*map.find(k * 3), k);
    }
    EXPECT_EQ(map.find(1), nullptr);
}

TEST(NaiveStack, TextbookSequence) {
    NaiveStackEngine e;
    // a b c a -> RD(a)=2; b -> 2; b -> 0; a -> 2.
    EXPECT_EQ(e.access(10), kInfiniteDistance);
    EXPECT_EQ(e.access(20), kInfiniteDistance);
    EXPECT_EQ(e.access(30), kInfiniteDistance);
    EXPECT_EQ(e.access(10), 2u);
    EXPECT_EQ(e.access(20), 2u);
    EXPECT_EQ(e.access(20), 0u);
    EXPECT_EQ(e.access(10), 1u);
    EXPECT_EQ(e.distinct_lines(), 3u);
}

TEST(Olken, MatchesNaiveOnRandomTrace) {
    NaiveStackEngine naive;
    OlkenEngine olken;
    Xoshiro256 rng(99);
    for (int i = 0; i < 20000; ++i) {
        // Mixture of hot lines and a long tail.
        const std::uint64_t line = rng.uniform() < 0.7
                                       ? rng.bounded(64)
                                       : rng.bounded(5000) + 64;
        EXPECT_EQ(olken.access(line), naive.access(line)) << "step " << i;
    }
    EXPECT_EQ(olken.distinct_lines(), naive.distinct_lines());
}

TEST(Olken, MatchesNaiveOnSequentialStreams) {
    NaiveStackEngine naive;
    OlkenEngine olken;
    // Two interleaved streams plus a small reused set: SpMV-shaped.
    for (int iter = 0; iter < 3; ++iter) {
        for (std::uint64_t i = 0; i < 3000; ++i) {
            for (const std::uint64_t line :
                 {100000 + i, 200000 + i, i % 37}) {
                EXPECT_EQ(olken.access(line), naive.access(line));
            }
        }
    }
}

TEST(Olken, CompactionPreservesDistances) {
    // Force many timestamp slots with a small distinct set so compaction
    // triggers repeatedly (initial slot space is 2^16).
    NaiveStackEngine naive;
    OlkenEngine olken(16);
    Xoshiro256 rng(3);
    for (int i = 0; i < 300000; ++i) {
        const std::uint64_t line = rng.bounded(128);
        ASSERT_EQ(olken.access(line), naive.access(line)) << "step " << i;
    }
}

/// access_batch must equal n in-order access() calls for any chunking —
/// including chunks straddling rehashes and (for Olken) compactions.
template <class Engine, class... Args>
void expect_batch_matches_serial(Args&&... args) {
    Xoshiro256 rng(2024);
    std::vector<std::uint64_t> lines;
    // Long enough to outrun Olken's 2^16 initial timestamp slots, so
    // compaction fires mid-batch.
    for (int i = 0; i < 150000; ++i)
        lines.push_back(rng.uniform() < 0.6 ? rng.bounded(96)
                                            : rng.bounded(20000) + 96);

    Engine serial(args...);
    std::vector<std::uint64_t> expected;
    expected.reserve(lines.size());
    for (const std::uint64_t line : lines)
        expected.push_back(serial.access(line));

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1024}, lines.size()}) {
        Engine batched(args...);
        std::vector<std::uint64_t> dists(lines.size());
        for (std::size_t i = 0; i < lines.size(); i += chunk) {
            const std::size_t n = std::min(chunk, lines.size() - i);
            batched.access_batch(lines.data() + i, dists.data() + i, n);
        }
        ASSERT_EQ(dists, expected) << "chunk " << chunk;
        EXPECT_EQ(batched.distinct_lines(), serial.distinct_lines());
    }
}

TEST(Olken, BatchMatchesSerialForEveryChunking) {
    expect_batch_matches_serial<OlkenEngine>();
}

TEST(Olken, BatchMatchesSerialAcrossCompaction) {
    // Tiny slot space: compaction fires inside batches.
    expect_batch_matches_serial<OlkenEngine>(std::size_t{16});
}

TEST(Kim, BatchMatchesSerialForEveryChunking) {
    expect_batch_matches_serial<KimEngine>(std::uint64_t{64});
}

TEST(Kim, BatchMatchesSerialWithWideGroups) {
    expect_batch_matches_serial<KimEngine>(std::uint64_t{1} << 16);
}

TEST(Olken, ClearForgetsHistory) {
    OlkenEngine e;
    e.access(1);
    e.access(2);
    EXPECT_EQ(e.access(1), 1u);
    e.clear();
    EXPECT_EQ(e.access(1), kInfiniteDistance);
    EXPECT_EQ(e.distinct_lines(), 1u);
}

TEST(Kim, ExactForSmallStacksWithLargeGroups) {
    // With one group larger than the distinct set, distances collapse to
    // group-midpoint estimates; with group capacity 1 they are exact.
    KimEngine kim(1);
    NaiveStackEngine naive;
    Xoshiro256 rng(5);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t line = rng.bounded(50);
        EXPECT_EQ(kim.access(line), naive.access(line)) << "step " << i;
    }
}

TEST(Kim, ApproximatesWithinGroupCapacity) {
    constexpr std::uint64_t kGroup = 64;
    KimEngine kim(kGroup);
    NaiveStackEngine naive;
    Xoshiro256 rng(8);
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t line = rng.bounded(2000);
        const auto approx = kim.access(line);
        const auto exact = naive.access(line);
        if (exact == kInfiniteDistance) {
            EXPECT_EQ(approx, kInfiniteDistance);
        } else {
            // Kim et al.: error bounded by the group capacity.
            const auto lo = exact >= kGroup ? exact - kGroup : 0;
            EXPECT_GE(approx, lo) << "step " << i;
            EXPECT_LE(approx, exact + kGroup) << "step " << i;
        }
    }
}

TEST(Kim, GroupChainStaysBounded) {
    KimEngine kim(128);
    for (std::uint64_t line = 0; line < 10000; ++line) kim.access(line);
    // 10000 distinct lines / capacity 128 -> ~79 groups.
    EXPECT_GE(kim.group_count(), 70u);
    EXPECT_LE(kim.group_count(), 90u);
    EXPECT_EQ(kim.distinct_lines(), 10000u);
}

// ---- Capacity stack ------------------------------------------------------

/// The test traces: uniform random over more lines than the paper's
/// largest sector-0 capacity (so the stack evicts), a cyclic sweep whose
/// reuse distance falls between two of those capacities, and an
/// SpMV-shaped mix of a hot set, a long random tail and a sequential
/// stream.
std::vector<std::uint64_t> capacity_trace(const std::string& shape) {
    Xoshiro256 rng(4242);
    std::vector<std::uint64_t> lines;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        if (shape == "random")
            lines.push_back(rng.bounded(40000));
        else if (shape == "sequential")
            lines.push_back(i % 24000);
        else if (i % 3 == 0)
            lines.push_back(100000 + i / 3);
        else
            lines.push_back(rng.uniform() < 0.6 ? rng.bounded(96)
                                                : rng.bounded(50000) + 96);
    }
    return lines;
}

/// Drives a capacity stack on the boundaries a counter builds for
/// `capacities` and Olken side by side: for every access and every
/// capacity c, the stack's group must reach the counter's first missing
/// group for c exactly when Olken's scaled distance reaches c, the counter
/// must end with Olken's miss count at every c, and the stack must never
/// hold more lines than its largest boundary.
void expect_class_exact(const std::vector<std::uint64_t>& lines,
                        const std::vector<std::uint64_t>& capacities,
                        const SampleFilter& filter = {}) {
    CapacityMissCounter counter(capacities, filter);
    CapacityStackEngine stack(counter.boundaries());
    OlkenEngine olken;
    const std::uint64_t largest = filter.sampled_threshold(
        *std::max_element(capacities.begin(), capacities.end()));
    std::vector<std::uint64_t> want_misses(capacities.size(), 0);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::uint32_t group = stack.access(lines[i]);
        counter.record(group);
        const std::uint64_t want =
            filter.scale_distance(olken.access(lines[i]));
        for (std::size_t k = 0; k < capacities.size(); ++k) {
            const std::uint64_t c = capacities[k];
            ASSERT_EQ(group >= counter.first_miss_group(c), want >= c)
                << "access " << i << ", capacity " << c << ": group "
                << group << ", olken " << want;
            if (want >= c) ++want_misses[k];
        }
        ASSERT_LE(stack.resident_lines(), largest) << "access " << i;
    }
    for (std::size_t k = 0; k < capacities.size(); ++k)
        EXPECT_EQ(counter.total_misses(capacities[k]), want_misses[k])
            << "capacity " << capacities[k];
    EXPECT_EQ(counter.accesses(), lines.size());
}

/// The paper's six sector-0 capacities: (16 - w) * 2048 lines for
/// w = 2..7 sector-1 ways.
std::vector<std::uint64_t> paper_sector0_capacities() {
    std::vector<std::uint64_t> caps;
    for (std::uint64_t w = 2; w <= 7; ++w) caps.push_back((16 - w) * 2048);
    return caps;
}

TEST(CapacityStack, ClassExactAgainstOlken) {
    const std::vector<std::vector<std::uint64_t>> capacity_sets = {
        {512},
        paper_sector0_capacities(),
        {300, 7, 4096, 300, 64, 7, 20000},  // unsorted, duplicates
        {1},
        {std::uint64_t{1} << 20, std::uint64_t{3} << 20},  // never fills
    };
    for (const std::string shape : {"random", "sequential", "mixed"}) {
        const std::vector<std::uint64_t> lines = capacity_trace(shape);
        for (const auto& caps : capacity_sets) {
            SCOPED_TRACE(shape + " trace, " + std::to_string(caps.size()) +
                         " capacities from " + std::to_string(caps.front()));
            expect_class_exact(lines, caps);
        }
    }
}

TEST(CapacityStack, SampledBoundariesKeepScaledComparisons) {
    // With a SHARDS filter the boundaries move to sampled_threshold(c),
    // so the groups must agree with Olken's *scaled* distances on every
    // capacity.
    for (const double rate : {0.5, 0.1}) {
        SCOPED_TRACE("R = " + std::to_string(rate));
        expect_class_exact(capacity_trace("mixed"),
                           paper_sector0_capacities(), SampleFilter(rate));
    }
}

TEST(CapacityStack, CapacitiesSharingAThresholdShareAGroup) {
    // At R = 0.001 a kept distance d scales to 1000 d, so every capacity
    // in (1000, 2000] has the threshold 2: the five capacities make three
    // boundaries, and 1001, 1500 and 2000 read one group.
    const SampleFilter filter(0.001);
    const std::vector<std::uint64_t> caps = {2000, 1500, 999, 2001, 1001};
    const CapacityMissCounter counter(caps, filter);
    EXPECT_EQ(counter.boundaries(), (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(counter.first_miss_group(999), 1u);
    for (const std::uint64_t c : {1001, 1500, 2000})
        EXPECT_EQ(counter.first_miss_group(c), 2u) << "capacity " << c;
    EXPECT_EQ(counter.first_miss_group(2001), 3u);

    // Short reuse over a few lines fills every group, and each capacity
    // must count what Olken's scaled distances give it.
    Xoshiro256 rng(1001);
    std::vector<std::uint64_t> lines;
    for (int i = 0; i < 20000; ++i) lines.push_back(rng.bounded(5));
    expect_class_exact(lines, caps, filter);
    // Two adjacent capacities that make one boundary, and on the mixed
    // trace 4001 and 4500 sharing the threshold 5 above 4000's 4.
    expect_class_exact(lines, {1500, 1501}, filter);
    expect_class_exact(capacity_trace("mixed"), {4000, 4001, 4500},
                       filter);
}

TEST(CapacityStack, ReportsGroupIndices) {
    // Boundaries 2 and 4: groups 0 = [0, 2) and 1 = [2, 4); 2 is off the
    // stack.
    const std::vector<std::uint64_t> boundaries = {2, 4};
    CapacityStackEngine e(boundaries);
    EXPECT_EQ(e.groups(), 2u);
    for (const std::uint64_t line : {1, 2, 3})
        EXPECT_EQ(e.access(line), 2u);
    EXPECT_EQ(e.access(1), 1u);  // true distance 2: group [2, 4)
    EXPECT_EQ(e.access(1), 0u);  // distance 0: group [0, 2)
    EXPECT_EQ(e.access(3), 0u);  // stack 1 3 2: distance 1
    EXPECT_EQ(e.access(2), 1u);  // stack 3 1 2: distance 2
    EXPECT_EQ(e.access(4), 2u);  // stack 4 2 3 1: full
    EXPECT_EQ(e.resident_lines(), 4u);
    EXPECT_EQ(e.access(5), 2u);  // 1 falls off
    EXPECT_EQ(e.resident_lines(), 4u);
    EXPECT_EQ(e.access(1), 2u);  // true distance 4
    EXPECT_EQ(e.access(4), 1u);  // stack 1 5 4 2: distance 2
}

TEST(CapacityStack, BatchMatchesSerialForEveryChunking) {
    const std::vector<std::uint64_t> lines = capacity_trace("mixed");
    const CapacityMissCounter priced(paper_sector0_capacities());
    CapacityStackEngine serial(priced.boundaries());
    std::vector<std::uint32_t> expected;
    for (const std::uint64_t line : lines)
        expected.push_back(serial.access(line));
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    std::size_t{1024}, lines.size()}) {
        CapacityStackEngine batched(priced.boundaries());
        std::vector<std::uint32_t> groups(lines.size());
        for (std::size_t i = 0; i < lines.size(); i += chunk) {
            const std::size_t n = std::min(chunk, lines.size() - i);
            batched.access_batch(lines.data() + i, groups.data() + i, n);
        }
        ASSERT_EQ(groups, expected) << "chunk " << chunk;
        EXPECT_EQ(batched.resident_lines(), serial.resident_lines());
    }
}

/// One pass over `lines` plus the period close must count, at every
/// capacity, what a warm-up pass plus a counted pass counts: the same
/// accesses and the same misses at every capacity, so the same tally in
/// every group. Lines the filter rejects are dropped first, as the replay
/// loop drops them.
void expect_close_matches_warm_up(const std::vector<std::uint64_t>& trace,
                                  const std::vector<std::uint64_t>& capacities,
                                  const SampleFilter& filter = {}) {
    std::vector<std::uint64_t> lines;
    for (const std::uint64_t line : trace)
        if (filter.keep(line)) lines.push_back(line);

    CapacityMissCounter counted(capacities, filter);
    CapacityStackEngine warmed(counted.boundaries());
    for (const std::uint64_t line : lines) (void)warmed.access(line);
    for (const std::uint64_t line : lines)
        counted.record(warmed.access(line));

    CapacityMissCounter closed(capacities, filter);
    CapacityStackEngine once(closed.boundaries());
    for (const std::uint64_t line : lines)
        closed.record(once.access(line));
    const std::uint64_t resident = once.resident_lines();
    once.close_period([&](std::uint64_t, std::uint32_t group) {
        closed.resolve_cold(group);
    });

    EXPECT_EQ(closed.accesses(), counted.accesses());
    for (const std::uint64_t c : capacities)
        EXPECT_EQ(closed.total_misses(c), counted.total_misses(c))
            << "capacity " << c;
    EXPECT_EQ(once.resident_lines(), resident);  // the close reads only
}

TEST(CapacityStack, PeriodicCloseMatchesWarmUpPass) {
    Xoshiro256 rng(20231);
    const auto capacities = [&rng] {
        std::vector<std::uint64_t> caps(1 + rng.bounded(4));
        for (auto& c : caps) c = 1 + rng.bounded(3000);
        return caps;
    };
    for (int round = 0; round < 12; ++round) {
        const std::uint64_t footprint = 1 + rng.bounded(4000);
        std::vector<std::uint64_t> uniform, cyclic, streaming;
        for (std::uint64_t i = 0; i < 12000; ++i) {
            uniform.push_back(rng.bounded(footprint));
            cyclic.push_back(i % footprint);
            // A stream of fresh lines with reuse of a hot set, like x
            // against a matrix's values.
            streaming.push_back(i % 3 == 0 ? rng.bounded(64)
                                           : 1000 + i / 2);
        }
        for (const auto* trace : {&uniform, &cyclic, &streaming}) {
            const std::vector<std::uint64_t> caps = capacities();
            SCOPED_TRACE("round " + std::to_string(round) + ", footprint " +
                         std::to_string(footprint) + ", " +
                         std::to_string(caps.size()) +
                         " capacities from " + std::to_string(caps.front()));
            expect_close_matches_warm_up(*trace, caps);
            expect_close_matches_warm_up(*trace, caps, SampleFilter(0.25));
        }
    }

    // Edges: an empty trace, one line, a footprint of exactly the largest
    // capacity and one either side of it, and a stream that never reuses.
    const std::vector<std::uint64_t> caps = {3, 8};
    expect_close_matches_warm_up({}, caps);
    expect_close_matches_warm_up({42}, caps);
    expect_close_matches_warm_up({42, 42, 42}, caps);
    for (const std::uint64_t footprint : {7, 8, 9}) {
        std::vector<std::uint64_t> cyclic, shuffled;
        for (std::uint64_t i = 0; i < 5 * footprint; ++i) {
            cyclic.push_back(i % footprint);
            shuffled.push_back(rng.bounded(footprint));
        }
        SCOPED_TRACE("footprint " + std::to_string(footprint));
        expect_close_matches_warm_up(cyclic, caps);
        expect_close_matches_warm_up(shuffled, caps);
    }
    std::vector<std::uint64_t> distinct(5000);
    for (std::uint64_t i = 0; i < distinct.size(); ++i) distinct[i] = i;
    expect_close_matches_warm_up(distinct, caps);
    expect_close_matches_warm_up(distinct, {1, 4096, 5000, 6000});
}

TEST(CapacityStack, PeriodCloseMovesColdCountsIntoGroupZero) {
    // The period 1 2 1 at boundaries 2 and 4: the pass finds 1 and 2 off
    // the stack, and the next period would find 1 on top (distance 0) and
    // 2 below it (distance 1), both in group 0.
    CapacityMissCounter counter({2, 4});
    CapacityStackEngine engine(counter.boundaries());
    for (const std::uint64_t line : {1, 2, 1})
        counter.record(engine.access(line));
    EXPECT_EQ(counter.total_misses(2), 2u);
    EXPECT_EQ(counter.total_misses(4), 2u);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> reported;
    engine.close_period([&](std::uint64_t line, std::uint32_t group) {
        reported.emplace_back(line, group);
        counter.resolve_cold(group);
    });
    const std::vector<std::pair<std::uint64_t, std::uint32_t>> want = {
        {1, 0}, {2, 0}};
    EXPECT_EQ(reported, want);
    EXPECT_EQ(counter.total_misses(2), 0u);
    EXPECT_EQ(counter.total_misses(4), 0u);
    EXPECT_EQ(counter.accesses(), 3u);
    expect_close_matches_warm_up({1, 2, 1}, {2, 4});
}

TEST(CapacityStack, RejectsEmptyOrZeroCapacities) {
    const std::vector<std::uint64_t> none;
    const std::vector<std::uint64_t> zero = {0, 16};
    const std::vector<std::uint64_t> unsorted = {16, 4};
    const std::vector<std::uint64_t> repeated = {4, 4};
    EXPECT_THROW(CapacityStackEngine{none}, ContractViolation);
    EXPECT_THROW(CapacityStackEngine{zero}, ContractViolation);
    EXPECT_THROW(CapacityStackEngine{unsorted}, ContractViolation);
    EXPECT_THROW(CapacityStackEngine{repeated}, ContractViolation);
    EXPECT_THROW(CapacityMissCounter{none}, ContractViolation);
    EXPECT_THROW(CapacityMissCounter{zero}, ContractViolation);
}

TEST(SampledThreshold, IsTheSmallestDistanceThatScalesToTheCapacity) {
    EXPECT_EQ(SampleFilter().sampled_threshold(12345), 12345u);
    for (const double rate : {0.5, 0.1, 0.01, 0.001}) {
        const SampleFilter filter(rate);
        for (std::uint64_t cap = 1; cap <= (std::uint64_t{1} << 20); ++cap) {
            const std::uint64_t t = filter.sampled_threshold(cap);
            ASSERT_GE(filter.scale_distance(t), cap)
                << "R = " << rate << ", capacity " << cap;
            ASSERT_TRUE(t == 0 || filter.scale_distance(t - 1) < cap)
                << "R = " << rate << ", capacity " << cap;
        }
    }
}

TEST(CapacityMissCounter, ExactThresholds) {
    CapacityMissCounter counter({16, 4});
    EXPECT_EQ(counter.boundaries(), (std::vector<std::uint64_t>{4, 16}));
    EXPECT_EQ(counter.first_miss_group(4), 1u);
    EXPECT_EQ(counter.first_miss_group(16), 2u);
    // Group 0 (distance < 4) hits at both capacities, group 1 misses at 4
    // and hits at 16, group 2 (off the stack) misses at both.
    counter.record(0);
    counter.record(1);
    counter.record(2);
    counter.record(2);
    EXPECT_EQ(counter.total_misses(4), 3u);
    EXPECT_EQ(counter.total_misses(16), 2u);
    EXPECT_EQ(counter.accesses(), 4u);
}

TEST(CapacityMissCounter, MatchesDirectCountOnRandomDistances) {
    const std::vector<std::uint64_t> caps = {8, 64, 512, 4096};
    CapacityMissCounter counter(caps);
    Xoshiro256 rng(21);
    std::vector<std::uint64_t> distances;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t d =
            rng.bounded(10) == 0 ? kInfiniteDistance : rng.bounded(8192);
        distances.push_back(d);
        // A distance's group counts the boundaries at or below it.
        counter.record(static_cast<std::uint32_t>(
            std::upper_bound(caps.begin(), caps.end(), d) - caps.begin()));
    }
    for (const auto cap : caps) {
        std::uint64_t expected = 0;
        for (const auto d : distances)
            if (d >= cap) ++expected;
        EXPECT_EQ(counter.total_misses(cap), expected) << "cap " << cap;
    }
}

TEST(CapacityMissCounter, RejectsUnknownCapacity) {
    CapacityMissCounter counter({8});
    EXPECT_THROW((void)counter.total_misses(9), ContractViolation);
    EXPECT_THROW((void)counter.first_miss_group(7), ContractViolation);
    EXPECT_THROW(counter.resolve_cold(0), ContractViolation);  // none cold
}

TEST(ReuseHistogram, BucketsAndMergar) {
    ReuseHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(kInfiniteDistance);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.cold(), 1u);
    EXPECT_EQ(h.bucket(0), 1u);  // distance 0
    EXPECT_EQ(h.bucket(1), 1u);  // distance 1
    EXPECT_EQ(h.bucket(2), 2u);  // distances 2..3

    ReuseHistogram h2;
    h2.record(0);
    h.merge(h2);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(ReuseHistogram, MissesAtLeastMonotone) {
    ReuseHistogram h;
    Xoshiro256 rng(2);
    for (int i = 0; i < 5000; ++i) h.record(rng.bounded(1 << 20));
    double prev = h.misses_at_least(1);
    for (std::uint64_t cap = 2; cap <= (1u << 20); cap *= 2) {
        const double cur = h.misses_at_least(cap);
        EXPECT_LE(cur, prev + 1e-9);
        prev = cur;
    }
    EXPECT_NEAR(h.misses_at_least(1u << 21), 0.0, 1e-9);
}

// Property sweep: all three engines agree (Kim within tolerance) across
// trace shapes.
class EngineAgreement : public testing::TestWithParam<int> {};

TEST_P(EngineAgreement, AllEnginesConsistent) {
    const int shape = GetParam();
    NaiveStackEngine naive;
    OlkenEngine olken;
    KimEngine kim(32);
    Xoshiro256 rng(1000 + static_cast<std::uint64_t>(shape));
    for (int i = 0; i < 8000; ++i) {
        std::uint64_t line = 0;
        switch (shape) {
            case 0:  // uniform random
                line = rng.bounded(700);
                break;
            case 1:  // sequential stream
                line = static_cast<std::uint64_t>(i) % 900;
                break;
            case 2:  // strided
                line = (static_cast<std::uint64_t>(i) * 17) % 1024;
                break;
            case 3:  // skewed hot set
                line = rng.uniform() < 0.9 ? rng.bounded(16)
                                           : rng.bounded(4000);
                break;
            default:  // bursts
                line = (static_cast<std::uint64_t>(i) / 64) % 300;
                break;
        }
        const auto exact = naive.access(line);
        EXPECT_EQ(olken.access(line), exact);
        const auto approx = kim.access(line);
        if (exact == kInfiniteDistance) {
            EXPECT_EQ(approx, kInfiniteDistance);
        } else {
            EXPECT_LE(approx, exact + 32);
            EXPECT_GE(approx + 32, exact);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(TraceShapes, EngineAgreement,
                         testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace spmvcache
