// Ingestion benchmark for the `.spmvc` binary cache: one-job .mtx parse
// vs --jobs parse vs cached mmap load, over the synthetic suite (or --mm
// DIR). Every leg goes through load_matrix_handle so the three numbers
// measure the same contract — a ready-to-model LoadedMatrix with
// fingerprint and stats attached. Each parse leg also reports the
// process's peak RSS (VmHWM, reset before every load through
// /proc/self/clear_refs; omitted where the kernel refuses the reset).
// Emits a perf-trajectory point to BENCH_ingest.json (--out overrides the
// path); the headline number is the parse/cached-load speedup, expected
// well above 10x. --smoke shrinks the suite for CI.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "sparse/matrix_market.hpp"

namespace {

/// Resets the process's peak RSS (VmHWM) to its current RSS; false when
/// the kernel refuses.
bool reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/// VmHWM from /proc/self/status in MiB; 0 when unreadable.
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;
    namespace fs = std::filesystem;

    const CliParser cli(argc, argv);
    print_usage_hint("bench_ingest");
    const bool smoke = cli.has("smoke");
    const auto common = parse_common(cli, /*count=*/smoke ? 4 : 8,
                                     /*scale=*/smoke ? 0.25 : 0.75);
    const std::int64_t jobs = cli.get_int("jobs", 4);
    const std::int64_t warm_iters =
        cli.get_int("warm-iters", smoke ? 3 : 10);

    // Stage the suite as real .mtx files: ingestion starts at the disk.
    const fs::path work =
        fs::temp_directory_path() /
        ("spmvcache_bench_ingest_" + std::to_string(::getpid()));
    const fs::path cache_dir = work / "cache";
    fs::create_directories(work);

    const auto suite = build_suite(common);
    std::vector<std::string> paths;
    std::uint64_t total_nnz = 0;
    std::uint64_t total_mtx_bytes = 0;
    for (const auto& spec : suite) {
        const CsrMatrix m = spec.factory();
        const std::string path = (work / (spec.name + ".mtx")).string();
        write_matrix_market_file(path, m);
        paths.push_back(path);
        total_nnz += static_cast<std::uint64_t>(m.nnz());
        total_mtx_bytes += static_cast<std::uint64_t>(fs::file_size(path));
    }

    std::cout << "Ingestion: serial parse vs parallel parse (jobs=" << jobs
              << ") vs cached mmap load, " << paths.size()
              << " matrices, " << fmt_bytes(total_mtx_bytes)
              << " of .mtx text\n\n";

    const auto load_seconds = [](const MatrixSource& source) {
        const Timer timer;
        const Result<LoadedMatrix> loaded = load_matrix_handle(source);
        if (!loaded.ok()) {
            std::cerr << "fatal: " << loaded.error().render() << "\n";
            std::exit(2);
        }
        return timer.seconds();
    };
    // A parse leg's seconds, folding its peak RSS into `peak_mib`.
    bool rss_ok = true;
    const auto parse_leg = [&](const MatrixSource& source, double& peak_mib) {
        rss_ok = reset_peak_rss() && rss_ok;
        const double s = load_seconds(source);
        peak_mib = std::max(peak_mib, peak_rss_mib());
        return s;
    };

    TextTable table({"matrix", "parse [s]", "par parse [s]", "warm write",
                     "cached [s]", "speedup", "origin ok"});
    double parse_total = 0.0, parallel_total = 0.0, write_total = 0.0,
           cached_total = 0.0;
    double parse_peak_mib = 0.0, parallel_peak_mib = 0.0;
    bool all_cached = true;
    for (std::size_t n = 0; n < paths.size(); ++n) {
        MatrixSource source;
        source.path = paths[n];

        const double parse_s = parse_leg(source, parse_peak_mib);
        source.parse_jobs = jobs;
        const double parallel_s = parse_leg(source, parallel_peak_mib);
        source.parse_jobs = 1;

        // Cold load with the cache enabled: parse + .spmvc write.
        source.cache_dir = cache_dir.string();
        const double write_s = load_seconds(source);

        // Warm loads mmap the entry; best-of so the page cache (the
        // steady state of a repeated-ingestion workload) sets the number.
        double cached_s = 0.0;
        bool cache_hit = true;
        for (std::int64_t i = 0; i < warm_iters; ++i) {
            const Timer timer;
            const Result<LoadedMatrix> loaded =
                load_matrix_handle(source);
            const double s = timer.seconds();
            if (!loaded.ok() ||
                loaded.value().origin != LoadOrigin::CacheHit) {
                cache_hit = false;
                break;
            }
            if (i == 0 || s < cached_s) cached_s = s;
        }
        all_cached = all_cached && cache_hit;

        parse_total += parse_s;
        parallel_total += parallel_s;
        write_total += write_s;
        cached_total += cached_s;
        table.add_row({suite[n].name, fmt(parse_s, 4), fmt(parallel_s, 4),
                       fmt(write_s, 4), fmt(cached_s, 5),
                       fmt(cached_s > 0 ? parse_s / cached_s : 0.0, 1),
                       cache_hit ? "yes" : "NO"});
        std::cerr << suite[n].name << " done\n";
    }
    table.render(std::cout);

    // ---- 64-vs-32 index-width leg: cache footprint + warm-load time ----
    // The suite's matrices all fit 32-bit indices, so the default cache
    // above is narrow. Re-warm a second cache at forced 64-bit and
    // compare bytes on disk and the mmap-load time each width pays.
    const fs::path cache_w64 = work / "cache_w64";
    std::uint64_t bytes_w32 = 0, bytes_w64 = 0;
    double cached_w64_total = 0.0;
    for (const auto& path : paths) {
        MatrixSource source;
        source.path = path;
        source.cache_dir = cache_w64.string();
        source.index_width = IndexWidthChoice::W64;
        (void)load_seconds(source);  // cold: parse + wide write
        double best = 0.0;
        for (std::int64_t i = 0; i < warm_iters; ++i) {
            const double s = load_seconds(source);
            if (i == 0 || s < best) best = s;
        }
        cached_w64_total += best;
    }
    for (const fs::path& dir : {cache_dir, cache_w64}) {
        std::uint64_t& total = (dir == cache_w64) ? bytes_w64 : bytes_w32;
        for (const auto& e : fs::directory_iterator(dir))
            if (e.path().extension() == ".spmvc")
                total += static_cast<std::uint64_t>(
                    fs::file_size(e.path()));
    }
    const double size_ratio =
        bytes_w64 > 0 ? static_cast<double>(bytes_w32) /
                            static_cast<double>(bytes_w64)
                      : 0.0;
    std::cout << "index width: .spmvc total " << fmt_bytes(bytes_w32)
              << " (32-bit) vs " << fmt_bytes(bytes_w64)
              << " (64-bit) -> " << fmt(size_ratio, 2)
              << "x; warm load " << fmt(cached_total, 4) << " s vs "
              << fmt(cached_w64_total, 4) << " s\n";

    const double mtx_mb = static_cast<double>(total_mtx_bytes) / 1e6;
    const double parse_mb_per_s =
        parse_total > 0 ? mtx_mb / parse_total : 0.0;
    const double parallel_parse_mb_per_s =
        parallel_total > 0 ? mtx_mb / parallel_total : 0.0;
    const double speedup =
        cached_total > 0 ? parse_total / cached_total : 0.0;
    const double parallel_speedup =
        parallel_total > 0 ? parse_total / parallel_total : 0.0;
    std::cout << "total: parse " << fmt(parse_total, 3) << " s ("
              << fmt(parse_mb_per_s, 1) << " MB/s), parallel "
              << fmt(parallel_total, 3) << " s ("
              << fmt(parallel_parse_mb_per_s, 1) << " MB/s, "
              << fmt(parallel_speedup, 2) << "x), cache write "
              << fmt(write_total, 3) << " s, cached load "
              << fmt(cached_total, 4) << " s -> "
              << fmt(speedup, 1) << "x over parse\n";
    if (rss_ok)
        std::cout << "peak RSS: parse " << fmt(parse_peak_mib, 1)
                  << " MiB, parallel " << fmt(parallel_peak_mib, 1)
                  << " MiB\n";
    if (!all_cached)
        std::cout << "WARNING: some warm loads missed the cache\n";

    const std::string out_path = cli.get("out", "BENCH_ingest.json");
    std::ofstream out(out_path);
    if (out) {
        out << "{\"bench\": \"ingest\", \"smoke\": "
            << (smoke ? "true" : "false")
            << ", \"host_cores\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << SPMV_BENCH_BUILD_TYPE << "\""
            << ", \"matrices\": " << paths.size()
            << ", \"total_nnz\": " << total_nnz
            << ", \"mtx_bytes\": " << total_mtx_bytes
            << ", \"parse_jobs\": " << jobs
            << ", \"parse_seconds\": " << parse_total
            << ", \"parse_mb_per_s\": " << parse_mb_per_s
            << ", \"parallel_parse_seconds\": " << parallel_total
            << ", \"parallel_parse_mb_per_s\": " << parallel_parse_mb_per_s
            << ", \"parallel_parse_speedup\": " << parallel_speedup;
        if (rss_ok)
            out << ", \"parse_peak_rss_mib\": " << parse_peak_mib
                << ", \"parallel_parse_peak_rss_mib\": "
                << parallel_peak_mib;
        out << ", \"cache_write_seconds\": " << write_total
            << ", \"cached_load_seconds\": " << cached_total
            << ", \"cached_speedup\": " << speedup
            << ", \"all_cache_hits\": " << (all_cached ? "true" : "false")
            << ",\n \"index_width\": {\"spmvc_bytes_w32\": " << bytes_w32
            << ", \"spmvc_bytes_w64\": " << bytes_w64
            << ", \"size_ratio\": " << size_ratio
            << ", \"cached_load_seconds_w32\": " << cached_total
            << ", \"cached_load_seconds_w64\": " << cached_w64_total
            << "}}\n";
        std::cout << "perf point written to " << out_path << "\n";
    } else {
        std::cerr << "cannot write " << out_path << "\n";
    }

    std::error_code ec;
    fs::remove_all(work, ec);
    return all_cached && speedup >= 1.0 ? 0 : 1;
}
