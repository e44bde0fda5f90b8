#include "core/experiment.hpp"

#include <memory>

#include "trace/spmv_trace.hpp"
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

namespace {

/// The layout run_sector_sweep simulates: the paper's (4, 8)-byte
/// accounting at either width. model_vs_measured prices the model at its
/// element sizes, so both sides account the same bytes.
SpmvLayout sweep_layout(std::int64_t rows, std::int64_t cols,
                        std::int64_t nnz, const A64fxConfig& machine) {
    return SpmvLayout(rows, cols, nnz, machine.l2.line_bytes);
}

/// Width-typed body of run_sector_sweep: the trace generator is templated
/// on the physical index, but the simulated addresses come from SpmvLayout
/// with the paper's (4, 8)-byte accounting at either width, so the sweep
/// result is identical for a narrow and a wide load of the same matrix.
template <class Idx>
std::vector<MeasuredConfig> run_sector_sweep_impl(
    const BasicCsrView<Idx>& m, const std::vector<SectorWays>& configs,
    const ExperimentOptions& options) {
    SPMV_EXPECTS(!configs.empty());
    SPMV_EXPECTS(options.threads >= 1 &&
                 options.threads <= options.machine.cores);

    // One simulator per configuration; sizing the machine to the thread
    // count (only segments with active threads exist, as in the paper's
    // sequential runs that see a single 8 MiB segment).
    A64fxConfig machine = options.machine;
    machine.cores = options.threads;
    std::vector<std::unique_ptr<MemoryHierarchy>> sims;
    sims.reserve(configs.size());
    for (const auto& ways : configs) {
        auto sim = std::make_unique<MemoryHierarchy>(machine);
        sim->set_sector_ways(ways);
        sims.push_back(std::move(sim));
    }

    const SpmvLayout layout =
        sweep_layout(m.rows(), m.cols(), m.nnz(), machine);
    const TraceConfig trace_cfg{options.threads, options.partition,
                                options.quantum,
                                options.x_prefetch_distance};

    auto play_iteration = [&] {
        generate_spmv_trace(m, layout, trace_cfg, [&](const MemRef& ref) {
            const int sector = sector_of(ref.object, options.policy);
            if (ref.is_prefetch) {
                for (auto& sim : sims)
                    sim->software_prefetch(ref.thread, ref.line, sector);
            } else {
                for (auto& sim : sims)
                    sim->demand_access(ref.thread, ref.line, sector,
                                       ref.is_write);
            }
        });
    };

    for (std::int64_t i = 0; i < options.warmup_iterations; ++i)
        play_iteration();
    for (auto& sim : sims) sim->reset_counters();
    play_iteration();

    const RowPartition partition(m, options.threads, options.partition);
    const auto nnz_per_thread = partition.nnz_per_thread(m);

    std::vector<MeasuredConfig> results;
    results.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        MeasuredConfig mc;
        mc.ways = configs[i];
        mc.l1 = sims[i]->l1_total();
        mc.l2 = sims[i]->l2_total();
        mc.timing = estimate_timing(*sims[i], nnz_per_thread, options.timing);
        results.push_back(mc);
    }
    return results;
}

}  // namespace

std::vector<MeasuredConfig> run_sector_sweep(
    const AnyCsrView& m, const std::vector<SectorWays>& configs,
    const ExperimentOptions& options) {
    return m.visit([&](const auto& v) {
        return run_sector_sweep_impl(v, configs, options);
    });
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
    ModelOptions model_options;
    model_options.machine = options.machine;
    model_options.threads = options.threads;
    model_options.policy = options.policy;
    model_options.l2_way_options = l2_way_options;
    model_options.partition = options.partition;
    model_options.quantum = options.quantum;
    const SpmvLayout layout =
        sweep_layout(m.rows(), m.cols(), m.nnz(), options.machine);
    model_options.accounting_colidx_bytes = layout.colidx_bytes();
    model_options.accounting_rowptr_bytes = layout.rowptr_bytes();
    comparison.method_a = run_method_a(m, model_options);
    comparison.method_b = run_method_b(m, model_options);
    return comparison;
}

}  // namespace spmvcache
