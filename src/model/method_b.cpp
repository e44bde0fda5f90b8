#include "model/method_b.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "model/analytic.hpp"
#include "model/replay.hpp"
#include "reuse/capacity_stack.hpp"
#include "reuse/histogram.hpp"
#include "trace/packed_trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvcache {

namespace {

/// Rows/nonzeros owned by one L2 segment's threads.
struct SegmentShare {
    std::int64_t rows = 0;
    std::int64_t nnz = 0;
};

template <class Idx>
std::vector<SegmentShare> segment_shares(const BasicCsrView<Idx>& m,
                                         const RowPartition& partition,
                                         std::int64_t segments,
                                         std::int64_t cores_per_numa) {
    std::vector<SegmentShare> shares(static_cast<std::size_t>(segments));
    const auto rowptr = m.rowptr();
    for (std::int64_t t = 0; t < partition.threads(); ++t) {
        const auto seg = static_cast<std::size_t>(t / cores_per_numa);
        const auto& range = partition.range(t);
        shares[seg].rows += range.size();
        shares[seg].nnz +=
            static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(range.end)]) -
            static_cast<std::int64_t>(
                rowptr[static_cast<std::size_t>(range.begin)]);
    }
    return shares;
}

std::uint64_t scaled_capacity(std::uint64_t lines, double factor) {
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(lines) / factor)));
}

}  // namespace

/// The templated body behind the AnyCsrView entry point. `ci`/`rp` are
/// the accounted colidx/rowptr element sizes (physical storage width by
/// default, ModelOptions override otherwise); they parameterise the trace
/// layout, the §3.1 streaming terms, the s1/s2 scaling factors and every
/// working-set byte count below — the paper's constants (12K, 16M, +8)
/// are the ci=4, rp=8 specialisation.
template <class Idx>
ModelResult run_method_b_impl(const BasicCsrView<Idx>& m,
                              const ModelOptions& options) {
    const Timer timer;
    // The analytic streaming terms below stay exact — the run's SHARDS
    // filter only approximates the x-vector reuse-distance part.
    const detail::ReplayPlan plan(m, options);
    const SampleFilter& filter = plan.filter;
    const std::int64_t segments = plan.segments;

    const std::uint64_t ci = options.colidx_bytes_for(Idx::width);
    const std::uint64_t rp = options.rowptr_bytes_for(Idx::width);
    const auto& machine = options.machine;
    const std::uint64_t line_bytes = machine.l2.line_bytes;
    const std::uint64_t l2_sets = machine.l2.sets();
    const std::uint64_t l2_ways = machine.l2.ways;
    const std::uint64_t cap_full = l2_ways * l2_sets;
    const std::uint64_t cache_bytes = machine.l2.size_bytes;

    const RowPartition partition(m, options.threads, options.partition);
    const auto shares =
        segment_shares(m, partition, segments, machine.cores_per_numa);

    // Per-segment scaling factors from the segment's own rows/nonzeros.
    std::vector<double> s1(static_cast<std::size_t>(segments));
    std::vector<double> s2(static_cast<std::size_t>(segments));
    for (std::size_t g = 0; g < shares.size(); ++g) {
        const std::int64_t k = std::max<std::int64_t>(1, shares[g].nnz);
        s1[g] = scaling_factor_partitioned(
            shares[g].rows, k, static_cast<std::uint32_t>(rp));
        s2[g] = scaling_factor_unpartitioned(
            shares[g].rows, k, static_cast<std::uint32_t>(ci),
            static_cast<std::uint32_t>(rp));
    }

    // Per-segment scaled capacities. For the partitioned entries the x
    // vector lives in sector 0: capacity (ways - w) * sets, divided by s1;
    // unpartitioned: full capacity divided by s2.
    std::vector<std::vector<std::uint64_t>> capsP(
        static_cast<std::size_t>(segments));
    std::vector<std::uint64_t> capU(static_cast<std::size_t>(segments));
    for (std::size_t g = 0; g < capsP.size(); ++g) {
        for (const auto w : options.l2_way_options) {
            SPMV_EXPECTS(w >= 1 && w < l2_ways);
            capsP[g].push_back(
                scaled_capacity((l2_ways - w) * l2_sets, s1[g]));
        }
        capU[g] = scaled_capacity(cap_full, s2[g]);
    }

    // One counter set per segment for the L2 (a single stack pass serves
    // both the partitioned and unpartitioned cases — the distances are the
    // same, only the evaluation thresholds differ) plus one for the
    // per-core L1 model. Counters are created up front because the
    // analytic assembly reads them; the stack engines live inside the
    // shard bodies, which run concurrently on up to `jobs` host workers
    // (each shard touches only its own segment's slice of the trace).
    std::vector<std::unique_ptr<CapacityMissCounter>> cntP(
        static_cast<std::size_t>(segments));
    std::vector<std::unique_ptr<CapacityMissCounter>> cntU(
        static_cast<std::size_t>(segments));
    for (std::size_t g = 0; g < cntP.size(); ++g) {
        cntP[g] = std::make_unique<CapacityMissCounter>(capsP[g]);
        cntU[g] = std::make_unique<CapacityMissCounter>(
            std::vector<std::uint64_t>{capU[g]});
    }

    const std::uint64_t l1_lines = machine.l1.lines();
    std::vector<std::uint64_t> capL1(static_cast<std::size_t>(segments));
    std::vector<std::unique_ptr<CapacityMissCounter>> cntL1(
        static_cast<std::size_t>(segments));
    if (options.predict_l1) {
        for (std::size_t g = 0; g < capL1.size(); ++g) {
            capL1[g] = scaled_capacity(l1_lines, s2[g]);
            cntL1[g] = std::make_unique<CapacityMissCounter>(
                std::vector<std::uint64_t>{capL1[g]});
        }
    }

    std::vector<ShardStats> shard_stats(static_cast<std::size_t>(segments));
    plan.for_each_shard([&](std::int64_t g) {
        const Timer shard_timer;
        const auto gi = static_cast<std::size_t>(g);
        const std::int64_t t_begin = plan.first_thread(g);
        // The x engine feeds both counters, so it prices both capacity
        // lists.
        std::vector<std::uint64_t> caps_x = capsP[gi];
        caps_x.push_back(capU[gi]);
        CapacityStackEngine eng(caps_x, filter);
        std::vector<CapacityStackEngine> engL1;
        if (options.predict_l1) {
            engL1.reserve(static_cast<std::size_t>(plan.threads_in(g)));
            for (std::int64_t c = 0; c < plan.threads_in(g); ++c)
                engL1.emplace_back(cntL1[gi]->capacities(), filter);
        }
        auto& cnt_p = *cntP[gi];
        auto& cnt_u = *cntU[gi];

        // Method (B)'s engines only consume x-vector references, so each
        // chunk gathers those per owner (L2 engine + per-core L1 engines)
        // and runs the batched, prefetch-pipelined access path. Counters
        // accumulate, so scatter order is free.
        std::vector<std::uint64_t> lines_x, dist_x;
        std::vector<std::vector<std::uint64_t>> linesL1(engL1.size()),
            distL1(engL1.size());
        shard_stats[gi] = detail::replay_segment(
            plan, g, [&](std::span<const std::uint64_t> words) {
                lines_x.clear();
                for (auto& v : linesL1) v.clear();
                for (const std::uint64_t word : words) {
                    if (packed_object(word) != DataObject::X) continue;
                    const std::uint64_t line = packed_line(word);
                    lines_x.push_back(line);
                    if (!engL1.empty())
                        linesL1[static_cast<std::size_t>(
                                    static_cast<std::int64_t>(
                                        packed_thread(word)) -
                                    t_begin)]
                            .push_back(line);
                }
                dist_x.resize(lines_x.size());
                eng.access_batch(lines_x.data(), dist_x.data(),
                                 lines_x.size());
                for (std::size_t t = 0; t < engL1.size(); ++t) {
                    distL1[t].resize(linesL1[t].size());
                    engL1[t].access_batch(linesL1[t].data(),
                                          distL1[t].data(),
                                          linesL1[t].size());
                }
                for (const std::uint64_t d : dist_x) {
                    const std::uint64_t ds = filter.scale_distance(d);
                    cnt_p.record(ds);
                    cnt_u.record(ds);
                }
                for (const auto& dists : distL1)
                    for (const std::uint64_t d : dists)
                        cntL1[gi]->record(filter.scale_distance(d));
            });
        // One pass, then each engine's period close: the counts of a
        // counted iteration after a warm-up one (method_a.cpp).
        eng.close_period([&](std::uint64_t, std::uint64_t d) {
            const std::uint64_t ds = filter.scale_distance(d);
            cnt_p.resolve_cold(ds);
            cnt_u.resolve_cold(ds);
        });
        for (const CapacityStackEngine& engine : engL1)
            engine.close_period([&](std::uint64_t, std::uint64_t d) {
                cntL1[gi]->resolve_cold(filter.scale_distance(d));
            });
        shard_stats[gi].seconds = shard_timer.seconds();
    });

    // ---- Analytic terms for a, colidx, rowptr and y (§3.1 / §3.2.2) ------
    // Sampled counter totals scale by 1/R (exactly 1.0 for exact runs);
    // the analytic streaming terms are closed-form and never sampled.
    const double scale = filter.inverse_rate();
    ModelResult result;
    result.sampled = !filter.exact();
    result.sample_rate = filter.rate();
    const std::uint64_t x_bytes = static_cast<std::uint64_t>(m.cols()) * 8;

    // Unpartitioned entry.
    {
        ConfigPrediction off;
        off.l2_sector_ways = 0;
        for (std::size_t g = 0; g < shares.size(); ++g) {
            const auto stream = streaming_misses(
                shares[g].rows, shares[g].nnz, line_bytes,
                static_cast<std::uint32_t>(ci),
                static_cast<std::uint32_t>(rp));
            const std::uint64_t ws_seg =
                (8 + ci) * static_cast<std::uint64_t>(shares[g].nnz) +
                (8 + rp) * static_cast<std::uint64_t>(shares[g].rows) +
                x_bytes;
            const double x_misses =
                static_cast<double>(cntU[g]->total_misses(capU[g])) * scale;
            off.l2_x_misses += x_misses;
            off.l2_misses += x_misses;
            if (ws_seg > cache_bytes)
                off.l2_misses += static_cast<double>(stream.total());
        }
        result.configs.push_back(off);
    }

    // Partitioned entries.
    for (std::size_t i = 0; i < options.l2_way_options.size(); ++i) {
        const std::uint32_t w = options.l2_way_options[i];
        ConfigPrediction p;
        p.l2_sector_ways = w;
        const std::uint64_t n1_bytes =
            static_cast<std::uint64_t>(w) * l2_sets * line_bytes;
        const std::uint64_t n0_bytes =
            (l2_ways - w) * l2_sets * line_bytes;
        for (std::size_t g = 0; g < shares.size(); ++g) {
            const auto stream = streaming_misses(
                shares[g].rows, shares[g].nnz, line_bytes,
                static_cast<std::uint32_t>(ci),
                static_cast<std::uint32_t>(rp));
            const std::uint64_t matrix_bytes =
                (8 + ci) * static_cast<std::uint64_t>(shares[g].nnz);
            // y + rowptr per row, plus the rowptr array's final element.
            const std::uint64_t reusable_bytes =
                x_bytes + (8 + rp) * static_cast<std::uint64_t>(shares[g].rows) +
                rp;
            const double x_misses =
                static_cast<double>(cntP[g]->total_misses(capsP[g][i])) *
                scale;
            p.l2_x_misses += x_misses;
            p.l2_misses += x_misses;
            if (matrix_bytes > n1_bytes)
                p.l2_misses += static_cast<double>(stream.matrix_data());
            if (reusable_bytes > n0_bytes)
                p.l2_misses +=
                    static_cast<double>(stream.rowptr + stream.y);
        }
        result.configs.push_back(p);
    }

    // L1 prediction (§4.5.4): x misses from the per-core engines plus
    // streaming terms — at 64 KiB every multi-MiB working set streams.
    if (options.predict_l1) {
        for (std::size_t g = 0; g < shares.size(); ++g) {
            const auto stream = streaming_misses(
                shares[g].rows, shares[g].nnz, line_bytes,
                static_cast<std::uint32_t>(ci),
                static_cast<std::uint32_t>(rp));
            const std::uint64_t ws_seg =
                (8 + ci) * static_cast<std::uint64_t>(shares[g].nnz) +
                (8 + rp) * static_cast<std::uint64_t>(shares[g].rows) +
                x_bytes;
            const double x_misses =
                static_cast<double>(cntL1[g]->total_misses(capL1[g])) * scale;
            result.l1_x_misses += x_misses;
            result.l1_misses += x_misses;
            if (ws_seg > machine.l1.size_bytes *
                             static_cast<std::uint64_t>(
                                 machine.cores_per_numa))
                result.l1_misses += static_cast<double>(stream.total());
        }
    }

    const double total_unpart = result.configs.front().l2_misses;
    result.x_traffic_fraction =
        total_unpart > 0.0 ? result.configs.front().l2_x_misses / total_unpart
                           : 0.0;
    result.shards = std::move(shard_stats);
    for (const auto& st : result.shards) result.sampled_refs += st.sampled_refs;
    result.jobs = plan.effective_jobs;
    result.seconds = timer.seconds();
    return result;
}

ModelResult run_method_b(const AnyCsrView& m, const ModelOptions& options) {
    return m.visit(
        [&](const auto& v) { return run_method_b_impl(v, options); });
}

}  // namespace spmvcache
