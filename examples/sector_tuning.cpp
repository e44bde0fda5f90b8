// Sector-cache auto-tuning: the co-design use case from the paper's
// conclusion ("useful ... to determine optimized cache sizes, or to
// decide whether to integrate a cache partitioning mechanism").
//
// Given a matrix (.mtx path or a generated default), this example prices
// *every* L2 way split with one model run — no simulation, no hardware —
// and recommends the configuration to pass to FCC's
//   #pragma procedure scache_isolate_way L2=<N>
// It then verifies the recommendation on the simulated A64FX.
//
//   ./sector_tuning [path.mtx] [--threads N]
#include <iostream>

#include "core/spmvcache.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    const CliParser cli(argc, argv);
    const std::int64_t threads = cli.get_int("threads", 48);

    const CsrMatrix matrix =
        !cli.positionals().empty()
            ? read_matrix_market_file(cli.positionals().front())
            : gen::circuit(1 << 21, 4.0, 1 << 14, 0.08, 7);
    std::cout << "matrix: " << to_string(compute_stats(matrix)) << "\n"
              << "threads: " << threads << "\n\n";

    // Model every way split `spmvcache tune` prices, in one pass.
    ModelOptions options = tune_options();
    options.threads = threads;
    const ModelResult result = run_method_a(matrix, options);

    const double baseline = result.at(0).l2_misses;
    TextTable table({"L2 ways (sector 1)", "predicted L2 misses",
                     "vs no partitioning"});
    for (const auto& config : result.configs) {
        const double diff =
            baseline > 0 ? 100.0 * (config.l2_misses - baseline) / baseline
                         : 0.0;
        table.add_row({config.l2_sector_ways == 0
                           ? "off"
                           : std::to_string(config.l2_sector_ways),
                       fmt_count(static_cast<unsigned long long>(
                           config.l2_misses)),
                       fmt(diff, 2) + " %"});
    }
    table.render(std::cout, "Model-based sector sweep (method A):");
    const std::uint32_t best_ways = result.best().l2_sector_ways;
    const double best_misses = result.best().l2_misses;

    if (best_ways == 0) {
        std::cout << "\nRecommendation: leave the sector cache off for this "
                     "matrix.\n";
        return 0;
    }
    std::cout << "\nRecommendation:\n"
              << "  #pragma procedure scache_isolate_way L2=" << best_ways
              << "\n  #pragma procedure scache_isolate_assign a colidx\n"
              << "  (predicted "
              << fmt(100.0 * (baseline - best_misses) / baseline, 1)
              << " % fewer L2 misses)\n";

    // Verify on the simulated machine.
    ExperimentOptions experiment;
    experiment.machine = a64fx_default();
    experiment.threads = threads;
    const auto measured = run_sector_sweep(
        matrix, {SectorWays{0, 0}, SectorWays{best_ways, 0}}, experiment);
    std::cout << "\nsimulated check: " << measured[0].l2.fills() << " -> "
              << measured[1].l2.fills() << " L2 misses, speedup "
              << fmt(measured[1].speedup_over(measured[0]), 3) << "x\n";
    return 0;
}
