// Reproduces Table 3: absolute percentage error of the L2 cache-miss
// prediction for *parallel* SpMV with 48 threads (four shared L2
// segments), matrices larger than the 32 MiB aggregate L2.
//
// Paper shape: accuracy comparable to the sequential case for >= 4 L2
// ways (3-5 %), but *high* error for small sectors (15 % at 2 ways),
// because the model does not see the premature eviction of prefetched
// lines when many threads share a tiny sector (§4.5.3) — the simulator,
// like the hardware, does.
#include "bench_mape.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli =
        parse_cli(argc, argv, "bench_table3", {}, /*common=*/true);
    auto common = parse_common(cli, /*count=*/6, /*scale=*/0.45);
    common.threads = cli.get_int("threads", 48);

    std::cout << "Table 3: absolute percentage error of L2 miss "
                 "prediction, parallel SpMV (" << common.threads
              << " threads)\n";
    return run_mape_bench("MAPE over matrices > 32 MiB:", common,
                          32ull * 1024 * 1024, /*suite_t_min=*/0.65);
}
