// Reproduces Fig. 3: distributions of SpMV speedup (or slowdown) over the
// no-sector-cache baseline for sector configurations L2 ways 2-6 x L1 ways
// {none, 1, 2}, with 48 threads.
//
// Paper shape: best at 5 L2 ways with L1 off (>= 75% of matrices at or
// above 1.0x, upper quartile ~1.1x, max ~1.6x); enabling L1 ways degrades
// performance, down to 0.2x at 3 L1 ways.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_fig3", {}, /*common=*/true);
    const auto common = parse_common(cli, /*count=*/8, /*scale=*/0.28);

    std::cout << "Fig. 3: speedup over no-sector-cache baseline, "
              << common.threads << " threads\n\n";

    std::vector<SectorWays> configs{SectorWays{0, 0}};
    for (std::uint32_t l2 = 2; l2 <= 6; ++l2)
        for (const std::uint32_t l1 : {0u, 1u, 2u})
            configs.push_back(SectorWays{l2, l1});

    const auto suite = build_suite(common, /*t_min=*/0.5);
    const auto options = experiment_options(common);

    const std::function<std::vector<double>(const std::string&,
                                            const CsrMatrix&)>
        exp_fn = [&](const std::string&, const CsrMatrix& m) {
            const auto results = run_sector_sweep(m, configs, options);
            std::vector<double> speedups;
            speedups.reserve(configs.size() - 1);
            for (std::size_t c = 1; c < configs.size(); ++c)
                speedups.push_back(results[c].speedup_over(results[0]));
            return speedups;
        };
    const auto outcomes = run_collection<std::vector<double>>(
        suite, exp_fn, {.host_threads = common.host_threads});

    TextTable table(boxplot_headers("config (L2 ways / L1 ways)"));
    std::unique_ptr<CsvWriter> csv;
    if (!common.csv_path.empty())
        csv = std::make_unique<CsvWriter>(
            common.csv_path, std::vector<std::string>{"l2_ways", "l1_ways",
                                                      "matrix", "speedup"});
    double best_median = 0.0;
    SectorWays best_config{};
    for (std::size_t c = 1; c < configs.size(); ++c) {
        std::vector<double> speedups;
        for (const auto& o : outcomes) {
            if (!o.ok || o.result.empty()) continue;
            speedups.push_back(o.result[c - 1]);
            if (csv)
                csv->write_row({std::to_string(configs[c].l2),
                                std::to_string(configs[c].l1), o.name,
                                fmt(o.result[c - 1], 5)});
        }
        if (speedups.empty()) continue;
        const std::string label =
            "L2=" + std::to_string(configs[c].l2) + " L1=" +
            (configs[c].l1 == 0 ? "none" : std::to_string(configs[c].l1));
        table.add_row(boxplot_row(label, speedups, 3));
        const double med = median(speedups);
        if (med > best_median) {
            best_median = med;
            best_config = configs[c];
        }
    }
    table.render(std::cout);
    std::cout << "\nBest median speedup: " << fmt(best_median, 3) << "x at L2="
              << best_config.l2 << " L1="
              << (best_config.l1 == 0 ? std::string("none")
                                      : std::to_string(best_config.l1))
              << " (paper: ~1.05x median, best overall at 5 L2 ways, L1 "
                 "off)\n";
    return 0;
}
