// Reproduces Fig. 5: speedup versus the relative difference in L2
// *demand* misses for the sector cache with 5 L2 ways, restricted to
// matrices whose working set exceeds the L2 cache (classes 2/3a/3b).
// Also reproduces the §4.4 bandwidth-utilisation analysis: the top
// matrices by speedup are not the bandwidth-bound ones.
//
// Paper shape: speedup correlates with demand-miss reduction; the largest
// speedups (1.2x+) come with 30-80% fewer demand misses.
#include "bench_common.hpp"

#include "model/classify.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_fig5", {"ways"}, /*common=*/true);
    const auto common = parse_common(cli, /*count=*/10, /*scale=*/0.4);
    const auto l2_ways = static_cast<std::uint32_t>(cli.get_int("ways", 5));

    std::cout << "Fig. 5: speedup vs % difference in L2 demand misses, "
              << l2_ways << " L2 ways, " << common.threads
              << " threads, working sets > L2\n\n";

    const auto suite = build_suite(common);
    const auto options = experiment_options(common);
    const auto& machine = options.machine;
    const std::uint64_t cache_bytes = machine.l2.size_bytes;
    const std::uint64_t sector0_bytes =
        ways_to_lines(machine.l2, machine.l2.ways - l2_ways) *
        machine.l2.line_bytes;

    struct Row {
        std::string name;
        MatrixClass cls = MatrixClass::Class1;
        double speedup = 0.0;
        double diff_demand = 0.0;
        double bandwidth_base = 0.0;  ///< GB/s without sector cache
        double bandwidth_sc = 0.0;    ///< GB/s with sector cache
        bool above_l2 = false;
    };
    const std::function<Row(const std::string&, const CsrMatrix&)> exp_fn =
        [&](const std::string& name, const CsrMatrix& m) {
            const auto results = run_sector_sweep(
                m, {SectorWays{0, 0}, SectorWays{l2_ways, 0}}, options);
            Row row;
            row.name = name;
            row.cls = classify(m, cache_bytes, sector0_bytes);
            row.speedup = results[1].speedup_over(results[0]);
            row.diff_demand =
                results[1].l2_demand_difference_percent(results[0]);
            row.bandwidth_base = results[0].timing.bandwidth_gbs;
            row.bandwidth_sc = results[1].timing.bandwidth_gbs;
            row.above_l2 = m.working_set_bytes() > cache_bytes;
            return row;
        };
    const auto outcomes = run_collection<Row>(
        suite, exp_fn, {.host_threads = common.host_threads});

    std::vector<Row> rows;
    for (const auto& o : outcomes)
        if (o.ok && o.result.above_l2) rows.push_back(o.result);
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.diff_demand < b.diff_demand;
    });

    TextTable table(
        {"matrix", "class", "diff demand misses [%]", "speedup"});
    std::unique_ptr<CsvWriter> csv;
    if (!common.csv_path.empty())
        csv = std::make_unique<CsvWriter>(
            common.csv_path,
            std::vector<std::string>{"matrix", "class", "diff_demand",
                                     "speedup", "bw_base_gbs", "bw_sc_gbs"});
    for (const auto& row : rows) {
        table.add_row({row.name, to_string(row.cls), fmt(row.diff_demand, 1),
                       fmt(row.speedup, 3)});
        if (csv)
            csv->write_row({row.name, to_string(row.cls),
                            fmt(row.diff_demand, 3), fmt(row.speedup, 5),
                            fmt(row.bandwidth_base, 2),
                            fmt(row.bandwidth_sc, 2)});
    }
    table.render(std::cout);

    // Correlation between demand-miss reduction and speedup.
    if (rows.size() >= 3) {
        double mx = 0, my = 0;
        for (const auto& r : rows) {
            mx += r.diff_demand;
            my += r.speedup;
        }
        mx /= static_cast<double>(rows.size());
        my /= static_cast<double>(rows.size());
        double sxy = 0, sxx = 0, syy = 0;
        for (const auto& r : rows) {
            sxy += (r.diff_demand - mx) * (r.speedup - my);
            sxx += (r.diff_demand - mx) * (r.diff_demand - mx);
            syy += (r.speedup - my) * (r.speedup - my);
        }
        if (sxx > 0 && syy > 0)
            std::cout << "\nPearson correlation (diff demand vs speedup): "
                      << fmt(sxy / std::sqrt(sxx * syy), 3)
                      << " (paper: strong negative — fewer demand misses, "
                         "higher speedup)\n";
    }

    // §4.4: bandwidth utilisation of the top matrices by speedup.
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.speedup > b.speedup;
    });
    std::cout << "\nTop matrices by speedup (bandwidth utilisation, "
                 "paper: top-speedup matrices stay below ~400 GB/s):\n";
    TextTable bw({"matrix", "speedup", "BW base [GB/s]", "BW sc [GB/s]"});
    const std::size_t top = std::min<std::size_t>(5, rows.size());
    for (std::size_t i = 0; i < top; ++i)
        bw.add_row({rows[i].name, fmt(rows[i].speedup, 3),
                    fmt(rows[i].bandwidth_base, 1),
                    fmt(rows[i].bandwidth_sc, 1)});
    bw.render(std::cout);
    return 0;
}
