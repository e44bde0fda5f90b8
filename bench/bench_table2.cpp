// Reproduces Table 2: mean and standard deviation of the absolute
// percentage error of the L2 cache-miss prediction for *sequential*
// iterative SpMV, methods (A) and (B), without the sector cache and with
// 2-7 L2 ways for sector 1. Only matrices larger than the (single) 8 MiB
// L2 segment are aggregated, as in the paper.
//
// Paper values: method (A) ~1.5-2.7 % everywhere; method (B) similar when
// partitioned but 6.5 % (std 16 %) without partitioning.
#include "bench_mape.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_table2", {}, /*common=*/true);
    auto common = parse_common(cli, /*count=*/8, /*scale=*/0.3);
    common.threads = cli.get_int("threads", 1);

    std::cout << "Table 2: absolute percentage error of L2 miss "
                 "prediction, sequential SpMV\n";
    return run_mape_bench("MAPE over matrices > 8 MiB:", common,
                          8ull * 1024 * 1024, /*suite_t_min=*/0.3);
}
