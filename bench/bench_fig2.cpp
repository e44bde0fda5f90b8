// Reproduces Fig. 2: distributions (boxplots) over the matrix collection
// of the relative difference in L2 cache misses for each sector-cache
// configuration (L2 ways 2-6 for sector 1, L1 ways none/1/2/3), compared
// to the sector-cache-off baseline, with 48 threads.
//
// All configurations of one matrix replay the same derived trace chunks.
// Matrices whose baseline miss count is below a measurement floor are
// excluded from the distributions, mirroring the paper's restriction to
// matrices with more than 1M nonzeros.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_fig2", {"min-fills"}, /*common=*/true);
    const auto common = parse_common(cli, /*count=*/8, /*scale=*/0.28);
    const auto min_fills = static_cast<std::uint64_t>(
        cli.get_int("min-fills", 10000));

    std::cout << "Fig. 2: % difference in L2 cache misses vs no sector "
                 "cache, " << common.threads << " threads\n"
              << "(negative = fewer misses; paper: best ~-5% median at 4-5 "
                 "L2 ways, L1 ways do not help)\n\n";

    // Baseline first, then the 5 x 4 grid of the figure.
    std::vector<SectorWays> configs{SectorWays{0, 0}};
    for (std::uint32_t l2 = 2; l2 <= 6; ++l2)
        for (const std::uint32_t l1 : {0u, 1u, 2u, 3u})
            configs.push_back(SectorWays{l2, l1});

    const auto suite = build_suite(common, /*t_min=*/0.5);
    const auto options = experiment_options(common);

    // Per matrix: the per-config % differences, or empty if the baseline
    // miss count is below the measurement floor.
    const std::function<std::vector<double>(const std::string&,
                                            const CsrMatrix&)>
        exp_fn = [&](const std::string&, const CsrMatrix& m) {
            const auto results = run_sector_sweep(m, configs, options);
            std::vector<double> diffs;
            if (results[0].l2.fills() < min_fills) return diffs;
            diffs.reserve(configs.size() - 1);
            for (std::size_t c = 1; c < configs.size(); ++c)
                diffs.push_back(
                    results[c].l2_miss_difference_percent(results[0]));
            return diffs;
        };
    const auto outcomes = run_collection<std::vector<double>>(
        suite, exp_fn, {.host_threads = common.host_threads});

    std::size_t measured = 0, floored = 0;
    for (const auto& o : outcomes) {
        if (!o.ok) continue;
        if (o.result.empty())
            ++floored;
        else
            ++measured;
    }
    std::cout << measured << "/" << suite.size() << " matrices in the "
              << "distributions (" << floored
              << " below the baseline-miss floor of " << min_fills << ")\n\n";

    TextTable table(boxplot_headers("config (L2 ways / L1 ways)"));
    std::unique_ptr<CsvWriter> csv;
    if (!common.csv_path.empty())
        csv = std::make_unique<CsvWriter>(
            common.csv_path,
            std::vector<std::string>{"l2_ways", "l1_ways", "matrix",
                                     "diff_percent"});
    for (std::size_t c = 1; c < configs.size(); ++c) {
        std::vector<double> diffs;
        for (const auto& o : outcomes) {
            if (!o.ok || o.result.empty()) continue;
            diffs.push_back(o.result[c - 1]);
            if (csv)
                csv->write_row({std::to_string(configs[c].l2),
                                std::to_string(configs[c].l1), o.name,
                                fmt(o.result[c - 1], 4)});
        }
        if (diffs.empty()) continue;
        const std::string label =
            "L2=" + std::to_string(configs[c].l2) + " L1=" +
            (configs[c].l1 == 0 ? "none" : std::to_string(configs[c].l1));
        table.add_row(boxplot_row(label, diffs));
    }
    table.render(std::cout);
    return 0;
}
