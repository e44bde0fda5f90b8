#include "core/experiment.hpp"

#include <span>

#include "model/replay.hpp"
#include "trace/packed_trace.hpp"
#include "util/error.hpp"

namespace spmvcache {

double MeasuredConfig::l2_miss_difference_percent(
    const MeasuredConfig& baseline) const {
    const auto base = static_cast<double>(baseline.l2.fills());
    if (base == 0.0) return 0.0;
    return 100.0 * (static_cast<double>(l2.fills()) - base) / base;
}

double MeasuredConfig::l2_demand_difference_percent(
    const MeasuredConfig& baseline) const {
    const auto base = static_cast<double>(baseline.l2.demand_misses());
    if (base == 0.0) return 0.0;
    return 100.0 * (static_cast<double>(l2.demand_misses()) - base) / base;
}

double MeasuredConfig::speedup_over(const MeasuredConfig& baseline) const {
    if (timing.seconds == 0.0) return 1.0;
    return baseline.timing.seconds / timing.seconds;
}

ModelOptions ExperimentOptions::model_options() const {
    ModelOptions o;
    o.machine = machine;
    o.threads = threads;
    o.policy = policy;
    o.partition = partition;
    o.paper_accounting = true;
    return o;
}

std::vector<MeasuredConfig> run_sector_sweep(
    const AnyCsrView& m, const std::vector<SectorWays>& configs,
    const ExperimentOptions& options) {
    SPMV_EXPECTS(!configs.empty());
    ModelOptions replay = options.model_options();
    // One-batch chunks: no shard holds its segment's whole trace, and
    // re-deriving the counted pass costs little next to the simulators.
    replay.trace_buffer_bytes = 0;
    const detail::ReplayPlan plan(m, replay, options.x_prefetch_distance);

    // One simulator per configuration; sizing the machine to the thread
    // count (only segments with active threads exist, as in the paper's
    // sequential runs that see a single 8 MiB segment).
    A64fxConfig machine = options.machine;
    machine.cores = options.threads;
    std::vector<MemoryHierarchy> sims;
    sims.reserve(configs.size());
    for (const auto& ways : configs) {
        sims.emplace_back(machine);
        sims.back().set_sector_ways(ways);
    }

    plan.for_each_shard([&](std::int64_t segment) {
        bool measuring = false;
        (void)detail::replay_segment(
            plan, segment,
            [&](std::span<const std::uint64_t> words, bool counting) {
                if (counting && !measuring) {
                    for (auto& sim : sims) sim.reset_segment_counters(segment);
                    measuring = true;
                }
                // Reference by reference: playing the chunk configuration
                // by configuration made bench_table2 (1 thread) 14-25 %
                // slower than the parent on a 4-vCPU x86 host.
                for (const std::uint64_t word : words) {
                    const MemRef ref = unpack_memref(word);
                    for (auto& sim : sims) sim.access(ref, options.policy);
                }
            });
    });

    const RowPartition partition(m, options.threads, options.partition);
    const auto nnz_per_thread = partition.nnz_per_thread(m);

    std::vector<MeasuredConfig> results;
    results.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        MeasuredConfig mc;
        mc.ways = configs[i];
        mc.l1 = sims[i].l1_total();
        mc.l2 = sims[i].l2_total();
        mc.timing = estimate_timing(sims[i], nnz_per_thread, options.timing);
        results.push_back(mc);
    }
    return results;
}

ModelComparison model_vs_measured(
    const AnyCsrView& m, const std::vector<std::uint32_t>& l2_way_options,
    const ExperimentOptions& options) {
    ModelComparison comparison;
    comparison.stats = compute_stats(m);

    // Measured: unpartitioned baseline plus each L2 way count (L1 sector
    // cache off, matching the setup of Tables 2 and 3).
    std::vector<SectorWays> configs;
    configs.push_back(SectorWays{0, 0});
    for (const auto w : l2_way_options) configs.push_back(SectorWays{w, 0});
    const auto measured = run_sector_sweep(m, configs, options);
    comparison.measured_l2.reserve(measured.size());
    for (const auto& mc : measured)
        comparison.measured_l2.push_back(static_cast<double>(mc.l2.fills()));
    // All lines entering the L1 (demand refills + prefetch fills): the
    // L1 analogue of the corrected L2 miss metric, and what the
    // fully-associative model predicts.
    comparison.measured_l1_unpartitioned =
        static_cast<double>(measured.front().l1.refills +
                            measured.front().l1.prefetch_fills);

    // Predicted.
    ModelOptions model = options.model_options();
    model.l2_way_options = l2_way_options;
    comparison.method_a = run_method_a(m, model);
    comparison.method_b = run_method_b(m, model);
    return comparison;
}

}  // namespace spmvcache
