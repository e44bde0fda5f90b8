// Reproduces §4.5.1: the runtime overhead of method (A) relative to
// method (B) (paper: 4.21x sequential, 3.02x with 48 threads; average
// method (B) runtime 6.54 s / 9.22 s at paper scale), with method (A) on
// its grouped stack with one group per priced capacity (t_A), plus the
// serial-vs-parallel wall-clock of the host-sharded model (--jobs). Both
// are emitted, with the host's core count and the build type, as a
// perf-trajectory point to BENCH_model_parallel.json (--out overrides the
// path).
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli(argc, argv);
    print_usage_hint("bench_overhead");
    const auto common = parse_common(cli, /*count=*/4, /*scale=*/0.3);

    std::cout << "Model runtime overhead t_A / t_B (paper §4.5.1: 4.21x at "
                 "1 thread, 3.02x at 48 threads)\n\n";

    const auto suite = build_suite(common);
    TextTable table({"matrix", "threads", "t_A(grouped stack) [s]",
                     "t_B [s]", "t_A/t_B"});

    std::ostringstream overhead;  // the JSON rows of the t_A/t_B totals
    for (const std::int64_t threads : {std::int64_t{1}, common.threads}) {
        double total_a = 0.0, total_b = 0.0;
        for (const auto& spec : suite) {
            const CsrMatrix m = spec.factory();
            ModelOptions options;
            options.machine = a64fx_default();
            options.threads = threads;
            options.predict_l1 = false;
            const auto a = run_method_a(m, options);
            const auto b = run_method_b(m, options);
            total_a += a.seconds;
            total_b += b.seconds;
            table.add_row({spec.name, std::to_string(threads),
                           fmt(a.seconds, 3), fmt(b.seconds, 3),
                           fmt(b.seconds > 0 ? a.seconds / b.seconds : 0.0,
                               2)});
            std::cerr << spec.name << " @" << threads << " threads done\n";
        }
        const double ratio = total_b > 0 ? total_a / total_b : 0.0;
        std::cout << "threads=" << threads << ": total t_A " << fmt(total_a, 2)
                  << " s, total t_B " << fmt(total_b, 2) << " s, ratio "
                  << fmt(ratio, 2) << "x\n";
        overhead << (overhead.str().empty() ? "" : ", ")
                 << "{\"threads\": " << threads
                 << ", \"t_a_seconds\": " << total_a
                 << ", \"t_b_seconds\": " << total_b
                 << ", \"t_a_over_t_b\": " << ratio << "}";
    }
    std::cout << '\n';
    table.render(std::cout);

    // ---- Host-parallel sharded execution: serial vs --jobs J -------------
    // Same predictions by construction (the differential suite asserts
    // bit-identity); only the wall-clock should move.
    const std::int64_t par_jobs = cli.get_int("jobs", 4);
    std::cout << "\nSharded method (A), " << common.threads
              << " simulated threads: jobs=1 vs jobs=" << par_jobs << "\n";
    TextTable par_table(
        {"matrix", "shards", "t serial [s]", "t parallel [s]", "speedup"});
    double serial_total = 0.0, parallel_total = 0.0;
    std::size_t matrices = 0;
    for (const auto& spec : suite) {
        const CsrMatrix m = spec.factory();
        ModelOptions options;
        options.machine = a64fx_default();
        options.threads = common.threads;
        options.predict_l1 = false;
        options.jobs = 1;
        const auto serial = run_method_a(m, options);
        options.jobs = par_jobs;
        const auto parallel = run_method_a(m, options);
        serial_total += serial.seconds;
        parallel_total += parallel.seconds;
        ++matrices;
        par_table.add_row(
            {spec.name, std::to_string(parallel.shards.size()),
             fmt(serial.seconds, 3), fmt(parallel.seconds, 3),
             fmt(parallel.seconds > 0 ? serial.seconds / parallel.seconds
                                      : 0.0,
                 2)});
        std::cerr << spec.name << " sharded done\n";
    }
    const double speedup =
        parallel_total > 0 ? serial_total / parallel_total : 0.0;
    par_table.render(std::cout);
    std::cout << "total: serial " << fmt(serial_total, 2) << " s, jobs="
              << par_jobs << " " << fmt(parallel_total, 2) << " s, speedup "
              << fmt(speedup, 2) << "x\n";

    const std::string out_path =
        cli.get("out", "BENCH_model_parallel.json");
    std::ofstream out(out_path);
    if (out) {
        out << "{\"bench\": \"model_parallel\""
            << ", \"host_cores\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << SPMV_BENCH_BUILD_TYPE << "\""
            << ", \"jobs\": " << par_jobs
            << ", \"threads\": " << common.threads
            << ", \"matrices\": " << matrices
            << ", \"serial_seconds\": " << serial_total
            << ", \"parallel_seconds\": " << parallel_total
            << ", \"speedup\": " << speedup
            << ",\n \"overhead\": [" << overhead.str() << "]}\n";
        std::cout << "perf point written to " << out_path << "\n";
    } else {
        std::cerr << "cannot write " << out_path << "\n";
    }
    return 0;
}
