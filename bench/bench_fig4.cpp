// Reproduces Fig. 4: speedup versus matrix columns (the x-vector size)
// for the sector cache with 5 L2 ways, with each matrix labelled by its
// §3.1 working-set class.
//
// Paper shape: class (1) within ~5% of baseline, class (2) almost always
// improves (up to the 1.6x maximum), class (3) benefit fades as x
// outgrows sector 0.
#include "bench_common.hpp"

#include "model/classify.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_fig4", {"ways"}, /*common=*/true);
    const auto common = parse_common(cli, /*count=*/10, /*scale=*/0.4);
    const auto l2_ways = static_cast<std::uint32_t>(cli.get_int("ways", 5));

    std::cout << "Fig. 4: speedup vs matrix columns, sector cache with "
              << l2_ways << " L2 ways, " << common.threads << " threads\n\n";

    const auto suite = build_suite(common);
    const auto options = experiment_options(common);
    const auto& machine = options.machine;
    const std::uint64_t cache_bytes = machine.l2.size_bytes;
    const std::uint64_t sector0_bytes =
        ways_to_lines(machine.l2, machine.l2.ways - l2_ways) *
        machine.l2.line_bytes;

    struct Row {
        std::string name;
        std::int64_t cols = 0;
        MatrixClass cls = MatrixClass::Class1;
        double speedup = 0.0;
        double diff_demand = 0.0;
    };
    const std::function<Row(const std::string&, const CsrMatrix&)> exp_fn =
        [&](const std::string& name, const CsrMatrix& m) {
            const auto results = run_sector_sweep(
                m, {SectorWays{0, 0}, SectorWays{l2_ways, 0}}, options);
            Row row;
            row.name = name;
            row.cols = m.cols();
            row.cls = classify(m, cache_bytes, sector0_bytes);
            row.speedup = results[1].speedup_over(results[0]);
            row.diff_demand =
                results[1].l2_demand_difference_percent(results[0]);
            return row;
        };
    const auto outcomes = run_collection<Row>(
        suite, exp_fn, {.host_threads = common.host_threads});

    // Scatter rows sorted by columns (the figure's x axis).
    std::vector<Row> rows;
    for (const auto& o : outcomes)
        if (o.ok) rows.push_back(o.result);
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.cols < b.cols; });

    TextTable table({"matrix", "columns", "class", "speedup"});
    std::unique_ptr<CsvWriter> csv;
    if (!common.csv_path.empty())
        csv = std::make_unique<CsvWriter>(
            common.csv_path,
            std::vector<std::string>{"matrix", "columns", "class",
                                     "speedup"});
    for (const auto& row : rows) {
        table.add_row({row.name,
                       fmt_count(static_cast<unsigned long long>(row.cols)),
                       to_string(row.cls), fmt(row.speedup, 3)});
        if (csv)
            csv->write_row({row.name, std::to_string(row.cols),
                            to_string(row.cls), fmt(row.speedup, 5)});
    }
    table.render(std::cout);

    // Per-class summary (the figure's visual grouping).
    std::cout << "\nPer-class speedup summary:\n";
    TextTable summary(boxplot_headers("class"));
    for (const auto cls :
         {MatrixClass::Class1, MatrixClass::Class2, MatrixClass::Class3a,
          MatrixClass::Class3b}) {
        std::vector<double> values;
        for (const auto& row : rows)
            if (row.cls == cls) values.push_back(row.speedup);
        if (!values.empty())
            summary.add_row(boxplot_row(to_string(cls), values, 3));
    }
    summary.render(std::cout);
    return 0;
}
