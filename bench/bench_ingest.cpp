// Ingestion benchmark for the `.spmvc` binary cache: one-job .mtx parse
// vs --jobs parse vs cached mmap load, over the synthetic suite (or --mm
// DIR). Every leg goes through load_matrix_handle so the three numbers
// measure the same contract — a ready-to-model LoadedMatrix with
// fingerprint and stats attached. A fourth leg parses the same files with
// their entry lines sorted by column, the order the reader cannot assemble
// in place, and a fifth parses them with every value written at 17
// significant digits, too long for the reader's exact short-decimal path.
// The row- and column-order parse legs also report the process's peak RSS
// (VmHWM, reset through /proc/self/clear_refs before every load, once
// freed heap pages are handed back, so a leg's peak does not count what
// glibc kept of earlier legs; omitted where the kernel refuses the reset).
// Writes its record to BENCH_ingest.json (--out overrides the path); the
// headline is the parse/cached-load speedup. A warm load that misses the
// cache, a column-major read that differs from the row-major one, a
// 17-digit read that differs from the generated matrix, or a cached load
// slower than parsing exits 1 with no record. --smoke shrinks the suite
// for CI.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <string>
#include <tuple>

#include "bench_common.hpp"
#include "sparse/matrix_market.hpp"

namespace {

/// Hands freed heap pages back to the kernel and resets the process's peak
/// RSS (VmHWM) to its current RSS; false when the kernel refuses.
bool reset_peak_rss() {
    malloc_trim(0);
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/// Copies the Matrix Market file `from`, as write_matrix_market writes it
/// (banner, size line, entry lines), to `to` with its entry lines sorted
/// by (column, row), ties in file order: the order of column-major exports
/// such as MATLAB's. Lines are copied verbatim, so both files hold the
/// same value text.
void write_column_major(const std::string& from, const std::string& to) {
    std::ifstream in(from, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    const auto line_end = [&text](std::size_t at) {
        return std::min(text.find('\n', at), text.size());
    };
    const std::size_t first = line_end(line_end(0) + 1) + 1;
    struct Line {
        std::int64_t col = 0, row = 0;
        std::size_t at = 0;
    };
    std::vector<Line> lines;
    for (std::size_t at = first; at < text.size(); at = line_end(at) + 1) {
        Line line{.at = at};
        const char* end = text.data() + line_end(at);
        const char* p = std::from_chars(text.data() + at, end, line.row).ptr;
        std::from_chars(p + 1, end, line.col);
        lines.push_back(line);
    }
    std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
        return std::tie(a.col, a.row, a.at) < std::tie(b.col, b.row, b.at);
    });
    std::ofstream out(to, std::ios::binary);
    out.write(text.data(), static_cast<std::streamsize>(first));
    for (const Line& line : lines)
        out.write(text.data() + line.at,
                  static_cast<std::streamsize>(line_end(line.at) - line.at))
            << '\n';
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

    const CliParser cli = parse_cli(argc, argv, "bench_ingest",
                                    {"count", "scale", "seed", "mm", "smoke",
                                     "jobs", "warm-iters", "out"});
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

    // ---- Column-major leg: the rows restart at every column, so the
    // reader scatters its entries by row instead of moving them into the
    // CSR. One file at a time, and checked against the row-major read.
    double col_parse_total = 0.0, col_peak_mib = 0.0;
    std::uint64_t col_mtx_bytes = 0;
    bool col_same = true;
    for (std::size_t n = 0; n < paths.size(); ++n) {
        const std::string path =
            (work / (suite[n].name + ".by_column.mtx")).string();
        write_column_major(paths[n], path);
        col_mtx_bytes += static_cast<std::uint64_t>(fs::file_size(path));
        MatrixSource source;
        source.path = path;
        rss_ok = reset_peak_rss() && rss_ok;
        const Timer timer;
        const Result<LoadedMatrix> by_column = load_matrix_handle(source);
        col_parse_total += timer.seconds();
        col_peak_mib = std::max(col_peak_mib, peak_rss_mib());
        source.path = paths[n];
        const Result<LoadedMatrix> by_row = load_matrix_handle(source);
        col_same = col_same && by_column.ok() && by_row.ok() &&
                   by_column.value().fingerprint == by_row.value().fingerprint;
        fs::remove(path);
    }
    const double col_parse_mb_per_s =
        col_parse_total > 0
            ? static_cast<double>(col_mtx_bytes) / 1e6 / col_parse_total
            : 0.0;
    std::cout << "column-major: parse " << fmt(col_parse_total, 3) << " s ("
              << fmt(col_parse_mb_per_s, 1) << " MB/s)";
    if (rss_ok) std::cout << ", peak RSS " << fmt(col_peak_mib, 1) << " MiB";
    std::cout << (col_same ? "" : "; MISMATCH against the row-major read")
              << "\n";

    // ---- Long-value leg: one job over the suite written with every value
    // at 17 significant digits, as a lossless export writes them. Such
    // values take from_chars, where write_matrix_market's 6 digits take
    // the exact short-decimal path. One file at a time, and checked
    // against the generated matrix value for value.
    double long_parse_total = 0.0;
    std::uint64_t long_mtx_bytes = 0;
    bool long_same = true;
    for (std::size_t n = 0; n < suite.size(); ++n) {
        const CsrMatrix m = suite[n].factory();
        const std::string path =
            (work / (suite[n].name + ".long.mtx")).string();
        {
            std::ofstream out(path, std::ios::binary);
            out << std::setprecision(17);
            write_matrix_market(out, m);
        }
        long_mtx_bytes += static_cast<std::uint64_t>(fs::file_size(path));
        MatrixSource source;
        source.path = path;
        const Timer timer;
        const Result<LoadedMatrix> loaded = load_matrix_handle(source);
        long_parse_total += timer.seconds();
        const CsrView* read =
            loaded.ok() ? loaded.value().view.as32() : nullptr;
        long_same = long_same && read != nullptr &&
                    std::ranges::equal(read->values(), m.values()) &&
                    loaded.value().fingerprint == fingerprint_matrix(m);
        fs::remove(path);
    }
    const double long_parse_mb_per_s =
        long_parse_total > 0
            ? static_cast<double>(long_mtx_bytes) / 1e6 / long_parse_total
            : 0.0;
    std::cout << "17-digit values: parse " << fmt(long_parse_total, 3)
              << " s (" << fmt(long_parse_mb_per_s, 1) << " MB/s, "
              << fmt_bytes(long_mtx_bytes) << ")"
              << (long_same ? "" : "; MISMATCH against the generated matrix")
              << "\n";

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

    std::error_code ec;
    fs::remove_all(work, ec);
    if (!all_cached || !col_same || !long_same || speedup < 1.0) {
        std::cerr << "FATAL: "
                  << (!all_cached  ? "a warm load missed the cache"
                      : !col_same  ? "the column-major read differs"
                      : !long_same ? "the 17-digit read differs"
                                   : "cached loads are slower than parsing")
                  << "\n";
        return 1;
    }

    BenchRecord record("ingest", smoke);
    record.param("matrices", paths.size());
    record.param("scale", common.scale);
    record.param("seed", common.seed);
    record.param("total_nnz", total_nnz);
    record.param("mtx_bytes", total_mtx_bytes);
    record.param("column_mtx_bytes", col_mtx_bytes);
    record.param("long_value_mtx_bytes", long_mtx_bytes);
    record.param("parse_jobs", jobs);
    record.param("warm_iters", warm_iters);
    record.metric("parse_s", "s", parse_total);
    record.metric("parallel_parse_s", "s", parallel_total);
    record.metric("column_parse_s", "s", col_parse_total);
    record.metric("long_value_parse_s", "s", long_parse_total);
    if (rss_ok) {
        record.metric("parse_peak_rss_mib", "MiB", parse_peak_mib);
        record.metric("parallel_parse_peak_rss_mib", "MiB",
                      parallel_peak_mib);
        record.metric("column_parse_peak_rss_mib", "MiB", col_peak_mib);
    }
    record.metric("cache_write_s", "s", write_total);
    record.metric("cached_load_s", "s", cached_total, warm_iters);
    record.metric("cached_load_w64_s", "s", cached_w64_total, warm_iters);
    record.metric("spmvc_bytes_w32", "B", static_cast<double>(bytes_w32));
    record.metric("spmvc_bytes_w64", "B", static_cast<double>(bytes_w64));
    return record.write(cli.get("out", "BENCH_ingest.json")) ? 0 : 1;
}
