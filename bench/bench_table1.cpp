// Reproduces Table 1: performance (Gflop/s) of CSR SpMV using 48 threads
// on the (simulated) A64FX, without the sector cache, for synthetic
// analogues of the paper's 18 SuiteSparse matrices.
//
// Default --scale 0.02 shrinks dimensions 50x so the run finishes in
// seconds; the nonzeros-per-row structure (which drives the Gflop/s
// ordering) is preserved. Absolute numbers come from the analytic timing
// model — compare the *shape* against the paper's columns, not the values.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_table1", {"scale", "threads", "seed"});
    const double scale = cli.get_double("scale", 0.25);
    const std::int64_t threads = cli.get_int("threads", 48);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

    std::cout << "Table 1: CSR SpMV performance, " << threads
              << " threads, no sector cache (analogue scale " << scale
              << ")\n\n";

    const auto suite = gen::table1_suite(scale, seed);
    const auto& reference = gen::table1_reference();

    ExperimentOptions options;
    options.machine = a64fx_default();
    options.threads = threads;

    TextTable table({"Matrix", "Rows", "Nonzeros", "Gflop/s (sim)",
                     "Gflop/s (paper)", "Gflop/s (Alappat)"});
    std::vector<double> sim_gflops, paper_gflops;

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const CsrMatrix m = suite[i].factory();
        const auto results =
            run_sector_sweep(m, {SectorWays{0, 0}}, options);
        const double gflops = results.front().timing.gflops;
        sim_gflops.push_back(gflops);
        paper_gflops.push_back(reference[i].gflops_paper);
        table.add_row({suite[i].name,
                       fmt_count(static_cast<unsigned long long>(m.rows())),
                       fmt_count(static_cast<unsigned long long>(m.nnz())),
                       fmt(gflops, 1), fmt(reference[i].gflops_paper, 1),
                       fmt(reference[i].gflops_alappat, 1)});
        std::cerr << "[" << i + 1 << "/" << suite.size() << "] "
                  << suite[i].name << " done\n";
    }
    table.render(std::cout);

    // Shape agreement: rank correlation between simulated and paper
    // Gflop/s (who is fast and who is slow should match).
    auto ranks = [](const std::vector<double>& v) {
        std::vector<std::size_t> idx(v.size());
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        std::sort(idx.begin(), idx.end(),
                  [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
        std::vector<double> rank(v.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            rank[idx[i]] = static_cast<double>(i);
        return rank;
    };
    const auto ra = ranks(sim_gflops);
    const auto rb = ranks(paper_gflops);
    double d2 = 0.0;
    for (std::size_t i = 0; i < ra.size(); ++i)
        d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
    const double n = static_cast<double>(ra.size());
    const double spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    std::cout << "\nSpearman rank correlation vs paper column: "
              << fmt(spearman, 3) << "\n";
    std::cout << "Simulated range: " << fmt(*std::min_element(
                     sim_gflops.begin(), sim_gflops.end()), 1)
              << " - "
              << fmt(*std::max_element(sim_gflops.begin(), sim_gflops.end()),
                     1)
              << " Gflop/s (paper: 5.8 - 117.8)\n";
    return 0;
}
