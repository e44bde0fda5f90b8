// Ablation experiments for the design choices the paper discusses:
//
//  (a) §4.3 prefetch-distance sweep: with the default aggressive L2
//      prefetch distance, a 2-way sector evicts prefetched lines before
//      use; after reducing the distance, 2 ways ~ 4 ways.
//  (b) RCM reordering (the optimisation behind Alappat et al.'s higher
//      numbers for kkt_power/audikw_1-style matrices in Table 1).
//  (c) Nonzero-balanced vs row-balanced thread partitioning (the second
//      Alappat et al. optimisation).
#include "bench_common.hpp"

#include "sparse/rcm.hpp"
#include "util/prng.hpp"
#include "sparse/sellcs.hpp"
#include "trace/sell_trace.hpp"

namespace {

using namespace spmvcache;
using namespace spmvcache::bench;

void prefetch_distance_sweep(const CommonOptions& common) {
    std::cout << "--- (a) Prefetch distance vs small sectors (§4.3) ---\n"
              << "Paper: after reducing the prefetch distance, 2 L2 ways "
                 "produce results similar to 4 L2 ways.\n\n";
    gen::SuiteOptions sopt;
    sopt.count = 8;
    sopt.scale = common.scale;
    sopt.t_min = 0.6;  // large enough to stream through the 48-thread L2
    sopt.seed = common.seed;
    auto suite = gen::synthetic_suite(sopt);
    if (suite.size() > 5) suite.resize(5);

    TextTable table({"L2 prefetch distance", "median diff 2 ways [%]",
                     "median diff 4 ways [%]", "premature evictions/matrix"});
    for (const std::uint32_t distance : {192u, 64u, 16u}) {
        std::vector<double> diff2, diff4;
        double premature = 0.0;
        std::size_t measured = 0;
        for (const auto& spec : suite) {
            const CsrMatrix m = spec.factory();
            ExperimentOptions options = experiment_options(common);
            options.machine.l2_prefetch.distance = distance;
            const auto results = run_sector_sweep(
                m, {SectorWays{0, 0}, SectorWays{2, 0}, SectorWays{4, 0}},
                options);
            std::cerr << "distance " << distance << ": " << spec.name
                      << " done\n";
            if (results[0].l2.fills() < 10000) continue;  // below floor
            diff2.push_back(
                results[1].l2_miss_difference_percent(results[0]));
            diff4.push_back(
                results[2].l2_miss_difference_percent(results[0]));
            premature += static_cast<double>(
                results[1].l2.prefetch_unused_evictions);
            ++measured;
        }
        if (measured == 0) continue;
        table.add_row({std::to_string(distance), fmt(median(diff2), 2),
                       fmt(median(diff4), 2),
                       fmt(premature / static_cast<double>(measured), 0)});
    }
    table.render(std::cout);
}

void rcm_ablation(const CommonOptions& common) {
    std::cout << "\n--- (b) RCM reordering (Table 1 discussion) ---\n"
              << "A matrix with hidden structure delivered in a bad row "
                 "order (here: a banded matrix under a random permutation) "
                 "regains x locality from RCM — Alappat et al.'s "
                 "optimisation missing from the paper's Table 1 runs.\n\n";
    ExperimentOptions options = experiment_options(common);
    TextTable table({"ordering", "bandwidth", "Gflop/s", "L2 misses"});

    // x must exceed one 8 MiB segment for locality in x to matter.
    const std::int64_t n = std::max<std::int64_t>(
        1 << 20, static_cast<std::int64_t>(8388608.0 * common.scale));
    const CsrMatrix banded = gen::banded(n, 12, n / 512, common.seed);

    // Deterministic shuffle destroying the row order.
    std::vector<std::int32_t> shuffle(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        shuffle[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
    Xoshiro256 rng(common.seed);
    for (std::size_t i = shuffle.size() - 1; i > 0; --i)
        std::swap(shuffle[i],
                  shuffle[rng.bounded(static_cast<std::uint64_t>(i + 1))]);
    const CsrMatrix shuffled = banded.permuted_symmetric(shuffle);
    const CsrMatrix restored = rcm_reorder(shuffled);

    for (const auto& [label, matrix] :
         {std::pair<const char*, const CsrMatrix*>{"original banded",
                                                   &banded},
          {"shuffled", &shuffled},
          {"shuffled + RCM", &restored}}) {
        const auto result =
            run_sector_sweep(*matrix, {SectorWays{0, 0}}, options).front();
        table.add_row({label,
                       fmt_count(static_cast<unsigned long long>(
                           compute_stats(*matrix).bandwidth)),
                       fmt(result.timing.gflops, 1),
                       fmt_count(result.l2.fills())});
        std::cerr << "rcm ablation: " << label << " done\n";
    }
    table.render(std::cout);
}

void partition_ablation(const CommonOptions& common) {
    std::cout << "\n--- (c) Row-balanced vs nonzero-balanced partitioning "
                 "---\n"
              << "Power-law matrices (bundle_adj/kkt_power-style) lose to "
                 "load imbalance under the Listing-1 static schedule.\n\n";
    // RMAT: the dense head rows all land on the first threads.
    const CsrMatrix m =
        gen::rmat(18, 12 * (1 << 18), common.seed);

    TextTable table({"partitioning", "imbalance (max/mean nnz)",
                     "Gflop/s"});
    for (const auto policy : {PartitionPolicy::BalancedRows,
                              PartitionPolicy::BalancedNonzeros}) {
        ExperimentOptions options = experiment_options(common);
        options.partition = policy;
        const auto result =
            run_sector_sweep(m, {SectorWays{0, 0}}, options).front();
        const RowPartition partition(m, options.threads, policy);
        table.add_row(
            {policy == PartitionPolicy::BalancedRows ? "balanced rows"
                                                     : "balanced nonzeros",
             fmt(partition.imbalance(m), 2), fmt(result.timing.gflops, 1)});
        std::cerr << "partitioning ablation step done\n";
    }
    table.render(std::cout);
}

void sell_ablation(const CommonOptions& common) {
    std::cout << "\n--- (d) SELL-C-sigma vs CSR under the sector cache "
                 "(paper future work) ---\n"
              << "Alappat et al. found SELL-C-sigma faster than CSR on the "
                 "A64FX but did not test it with the sector cache; here "
                 "both formats run through the same simulator (sequential, "
                 "one 8 MiB segment).\n\n";
    const std::int64_t n =
        static_cast<std::int64_t>(262144.0 * common.scale * 4);
    const CsrMatrix csr =
        gen::random_variable_rows(n, n, 16.0, 1.5, common.seed);
    const SellCSigmaMatrix sell(csr, 8, 256);

    A64fxConfig machine = a64fx_default();
    machine.cores = 1;

    TextTable table({"format", "sector", "L2 misses", "padding"});
    // CSR rows via the standard experiment driver.
    ExperimentOptions options;
    options.machine = a64fx_default();
    options.threads = 1;
    const auto csr_results = run_sector_sweep(
        csr, {SectorWays{0, 0}, SectorWays{5, 0}}, options);
    table.add_row({"CSR", "off", fmt_count(csr_results[0].l2.fills()),
                   "1.00"});
    table.add_row({"CSR", "5 L2 ways", fmt_count(csr_results[1].l2.fills()),
                   "1.00"});

    // SELL rows via the SELL trace generator.
    const SpmvLayout layout = sell_layout(sell, machine.l2.line_bytes);
    for (const std::uint32_t ways : {0u, 5u}) {
        MemoryHierarchy sim(machine);
        sim.set_sector_ways(SectorWays{ways, 0});
        for (int iteration = 0; iteration < 2; ++iteration) {
            if (iteration == 1) sim.reset_counters();
            generate_sell_trace(sell, layout, [&](const MemRef& ref) {
                sim.access(ref, SectorPolicy::IsolateMatrix);
            });
        }
        table.add_row({"SELL-8-256",
                       ways == 0 ? "off" : "5 L2 ways",
                       fmt_count(sim.l2_total().fills()),
                       fmt(sell.padding_factor(), 3)});
        std::cerr << "SELL ways=" << ways << " done\n";
    }
    table.render(std::cout);
}

void replacement_ablation(const CommonOptions& common) {
    std::cout << "\n--- (e) Replacement policy: exact LRU vs pseudo-LRU "
                 "(NRU) ---\n"
              << "The model assumes LRU (§2.2: 'we assume that a "
                 "pseudo-LRU policy is used'); this quantifies the error "
                 "contribution of that assumption.\n\n";
    const std::int64_t n = std::max<std::int64_t>(
        1 << 20, static_cast<std::int64_t>(5242880.0 * common.scale));
    const CsrMatrix m = gen::random_uniform(n, n, 8, common.seed);

    ExperimentOptions lru;
    lru.machine = a64fx_default();
    lru.threads = 1;
    ModelOptions model_options = lru.model_options();
    model_options.l2_way_options = {5};
    model_options.predict_l1 = false;
    const auto predicted = run_method_a(m, model_options);

    TextTable table({"replacement", "measured L2 misses (5 ways)",
                     "model error [%]"});
    for (const auto policy :
         {ReplacementPolicy::Lru, ReplacementPolicy::Nru}) {
        ExperimentOptions options = lru;
        options.machine.l1.replacement = policy;
        options.machine.l2.replacement = policy;
        const auto measured =
            run_sector_sweep(m, {SectorWays{5, 0}}, options).front();
        const double err =
            100.0 *
            (predicted.at(5).l2_misses -
             static_cast<double>(measured.l2.fills())) /
            static_cast<double>(measured.l2.fills());
        table.add_row({policy == ReplacementPolicy::Lru ? "LRU" : "NRU",
                       fmt_count(measured.l2.fills()), fmt(err, 2)});
        std::cerr << "replacement ablation: "
                  << (policy == ReplacementPolicy::Lru ? "LRU" : "NRU")
                  << " done\n";
    }
    table.render(std::cout);
}

void software_prefetch_ablation(const CommonOptions& common) {
    std::cout << "\n--- (f) Software prefetching of x + sector cache "
                 "(paper future work) ---\n"
              << "prfm hints for x[colidx[i+D]] turn irregular demand "
                 "misses into prefetch fills the latency model does not "
                 "penalise.\n\n";
    const std::int64_t n =
        static_cast<std::int64_t>(262144.0 * common.scale * 8);
    const CsrMatrix m = gen::random_uniform(n, n, 16, common.seed);

    TextTable table({"x prefetch distance", "L2 demand misses",
                     "L2 misses", "Gflop/s"});
    for (const std::int64_t distance : {0, 8, 32}) {
        ExperimentOptions options;
        options.machine = a64fx_default();
        options.x_prefetch_distance = distance;
        const auto r =
            run_sector_sweep(m, {SectorWays{5, 0}}, options).front();
        table.add_row({std::to_string(distance),
                       fmt_count(r.l2.demand_misses()),
                       fmt_count(r.l2.fills()), fmt(r.timing.gflops, 1)});
        std::cerr << "sw prefetch D=" << distance << " done\n";
    }
    table.render(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
    const CliParser cli = parse_cli(argc, argv, "bench_ablation",
                                    {"scale", "threads", "seed"});
    const auto common = parse_common(cli, /*count=*/6, /*scale=*/0.25);

    prefetch_distance_sweep(common);
    rcm_ablation(common);
    partition_ablation(common);
    sell_ablation(common);
    replacement_ablation(common);
    software_prefetch_ablation(common);
    return 0;
}
