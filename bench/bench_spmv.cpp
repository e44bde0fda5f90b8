// Kernel engine throughput: every KernelVariant against the
// spmv_csr_parallel baseline, swept over generator matrix classes and
// team sizes, with an in-process STREAM-triad roof measured on the same
// WorkerTeam so the table reads as a roofline ("how much of the machine's
// streaming bandwidth does each SpMV variant reach").
//
// Every variant is verified against the sequential spmv_csr kernel before
// it is timed: CsrScalar and CsrPrefetch must match bit-for-bit (they
// keep Listing 1's accumulation order); the SIMD, SELL and merge variants
// reorder the per-row sums, so they are held to a tight relative
// tolerance instead.
//
// Emits BENCH_spmv_kernel.json (--out overrides). --smoke shrinks
// matrices and iteration counts for CI.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_stats.hpp"
#include "sync/worker_team.hpp"
#include "util/prng.hpp"

namespace {

using namespace spmvcache;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
    return v;
}

/// Bytes one y += A x iteration must move at minimum (compulsory traffic,
/// perfect x reuse): values + colidx streams, rowptr, one read of x, and
/// a read-modify-write of y.
double spmv_bytes(const CsrMatrix& a) {
    return 12.0 * static_cast<double>(a.nnz()) +
           8.0 * static_cast<double>(a.rows() + 1) +
           8.0 * static_cast<double>(a.cols()) +
           16.0 * static_cast<double>(a.rows());
}

/// STREAM triad (a = b + s*c) on `threads` WorkerTeam workers — the same
/// execution substrate as the engine, so the roof is what *this* process
/// can stream, not a spec-sheet number. Returns GB/s.
double stream_triad_roof(std::int64_t threads, std::size_t n, int reps) {
    std::vector<double> a(n, 0.0);
    std::vector<double> b(n, 1.0);
    std::vector<double> c(n, 2.0);
    const double scalar = 3.0;
    const auto run_slice = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            a[i] = b[i] + scalar * c[i];
    };
    double seconds = 0.0;
    if (threads <= 1) {
        run_slice(0, n);  // warm-up / first touch
        Timer timer;
        for (int r = 0; r < reps; ++r) run_slice(0, n);
        seconds = timer.seconds();
    } else {
        WorkerTeam team(static_cast<std::size_t>(threads));
        const std::size_t slice =
            (n + static_cast<std::size_t>(threads) - 1) /
            static_cast<std::size_t>(threads);
        team.run([&](std::size_t t) {
            run_slice(std::min(t * slice, n), std::min((t + 1) * slice, n));
        });
        Timer timer;
        team.run([&](std::size_t t) {
            const std::size_t begin = std::min(t * slice, n);
            const std::size_t end = std::min((t + 1) * slice, n);
            for (int r = 0; r < reps; ++r) run_slice(begin, end);
        });
        seconds = timer.seconds();
    }
    const double bytes = 24.0 * static_cast<double>(n) *
                         static_cast<double>(reps);
    return seconds > 0 ? bytes / seconds / 1e9 : 0.0;
}

enum class Verify { Bitwise, Tolerance };

/// Compares an engine run against sequential spmv_csr from the same seed
/// vectors. Returns an empty string on success, a diagnostic otherwise.
std::string verify_variant(const CsrMatrix& a, KernelEngine& engine,
                           Verify mode) {
    const auto x = random_vector(static_cast<std::size_t>(a.cols()), 7);
    const auto y0 = random_vector(static_cast<std::size_t>(a.rows()), 11);
    std::vector<double> y_ref = y0;
    spmv_csr(a, x, y_ref);
    std::vector<double> y_eng = y0;
    engine.run(x, y_eng);
    for (std::size_t r = 0; r < y_ref.size(); ++r) {
        if (mode == Verify::Bitwise) {
            if (std::memcmp(&y_ref[r], &y_eng[r], sizeof(double)) != 0)
                return "row " + std::to_string(r) + ": " +
                       std::to_string(y_eng[r]) + " != " +
                       std::to_string(y_ref[r]) + " (bitwise)";
        } else {
            const double denom = std::max(std::abs(y_ref[r]), 1.0);
            if (std::abs(y_eng[r] - y_ref[r]) / denom > 1e-10)
                return "row " + std::to_string(r) + ": " +
                       std::to_string(y_eng[r]) + " vs " +
                       std::to_string(y_ref[r]) + " (tol)";
        }
    }
    return {};
}

struct VariantResult {
    KernelVariant variant = KernelVariant::CsrScalar;
    std::int64_t threads = 1;
    double gflops = 0.0;
    double gbytes = 0.0;
    double speedup = 0.0;  ///< vs spmv_csr_parallel at same thread count
    EngineInfo info;
};

struct MatrixResult {
    std::string name;
    std::int64_t rows = 0;
    std::int64_t nnz = 0;
    std::vector<VariantResult> variants;
    std::vector<double> baseline_gflops;  ///< per thread count
    double best_speedup = 0.0;
    std::string best_label;
};

/// The 64-vs-32 index-width leg: same matrix, same kernel variant, both
/// physical widths, plus the .spmvc cache-entry footprint each width
/// pays on disk.
struct WidthResult {
    std::string name;
    std::int64_t rows = 0;
    std::int64_t nnz = 0;
    double gflops_w32 = 0.0;
    double gflops_w64 = 0.0;
    double speedup_32_over_64 = 0.0;
    std::uint64_t spmvc_bytes_w32 = 0;
    std::uint64_t spmvc_bytes_w64 = 0;
    double size_ratio = 0.0;  ///< w32 bytes / w64 bytes
};

/// Times `iters` products on an engine built over `view` at its physical
/// width; returns GFLOP/s.
template <class Engine, class View>
double time_width_leg(const View& view, const EngineOptions& options,
                      std::int64_t iters, std::span<const double> x,
                      std::span<double> y) {
    Engine engine(view, options);
    engine.run_iterations(x, y, 1);  // warm-up
    Timer timer;
    engine.run_iterations(x, y, iters);
    const double seconds = timer.seconds();
    const double flops = 2.0 * static_cast<double>(view.nnz()) *
                         static_cast<double>(iters);
    return seconds > 0 ? flops / seconds / 1e9 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli = parse_cli(argc, argv, "bench_spmv",
                                    {"smoke", "seed", "threads", "out",
                                     "width-out"});
    const bool smoke = cli.has("smoke");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 42));

    // Matrix classes: best-case x locality (stencil), banded FEM-like,
    // worst-case x locality (uniform random), and a row-imbalanced class
    // for the merge variant.
    struct Case {
        const char* name;
        CsrMatrix matrix;
    };
    const std::int64_t g = smoke ? 96 : 1024;       // stencil grid edge
    const std::int64_t nb = smoke ? 20000 : 400000;  // banded rows
    const std::int64_t nr = smoke ? 10000 : 200000;  // random rows
    std::vector<Case> cases;
    cases.push_back({"stencil2d5", gen::stencil_2d_5pt(g, g)});
    cases.push_back({"banded", gen::banded(nb, 16, 256, seed)});
    cases.push_back({"random", gen::random_uniform(nr, nr, 16, seed)});
    cases.push_back(
        {"imbalanced", gen::random_variable_rows(nr, nr, 16.0, 2.0, seed)});

    std::vector<std::int64_t> thread_counts = {1};
    const std::int64_t max_threads = cli.get_int("threads", 2);
    for (std::int64_t t = 2; t <= max_threads; t *= 2)
        thread_counts.push_back(t);

    static constexpr KernelVariant kVariants[] = {
        KernelVariant::CsrScalar,   KernelVariant::CsrPrefetch,
        KernelVariant::CsrSimd,     KernelVariant::SellScalar,
        KernelVariant::SellSimd,    KernelVariant::CsrMerge,
    };

    std::cout << "host SIMD: " << simd::to_string(simd::best().isa)
              << "\n\n";

    // The roof per team size, shared across matrices.
    const std::size_t triad_n = smoke ? (std::size_t{1} << 20)
                                      : (std::size_t{1} << 25);
    std::vector<double> roofs;
    for (const std::int64_t t : thread_counts)
        roofs.push_back(stream_triad_roof(t, triad_n, smoke ? 3 : 10));

    std::vector<MatrixResult> results;
    bool all_verified = true;
    double overall_best = 0.0;
    std::string overall_label;

    for (const auto& c : cases) {
        const CsrMatrix& a = c.matrix;
        MatrixResult mr;
        mr.name = c.name;
        mr.rows = a.rows();
        mr.nnz = a.nnz();
        const std::int64_t iters =
            smoke ? 3
                  : std::max<std::int64_t>(
                        5, (std::int64_t{1} << 28) / std::max<std::int64_t>(
                                                         a.nnz(), 1));
        const double flops_per_iter = 2.0 * static_cast<double>(a.nnz());
        const auto x = random_vector(static_cast<std::size_t>(a.cols()),
                                     seed);
        std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

        TextTable table({"variant", "threads", "GFLOP/s", "GB/s",
                         "% roof", "vs baseline", "note"});

        for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
            const std::int64_t threads = thread_counts[ti];
            // Baseline: the public spmv_csr_parallel entry point (scalar
            // engine per call, setup included — what callers got before
            // engines were reusable).
            const RowPartition partition(a, threads,
                                         PartitionPolicy::BalancedNonzeros);
            Timer base_timer;
            for (std::int64_t i = 0; i < iters; ++i)
                spmv_csr_parallel(a, x, y, partition);
            const double base_seconds = base_timer.seconds();
            const double base_gflops =
                base_seconds > 0 ? flops_per_iter *
                                       static_cast<double>(iters) /
                                       base_seconds / 1e9
                                 : 0.0;
            mr.baseline_gflops.push_back(base_gflops);
            // GB/s from GFLOP/s: bytes moved per flop pair is bytes/2nnz.
            const double base_gbytes = base_gflops * spmv_bytes(a) /
                                       (2.0 * static_cast<double>(a.nnz()));
            table.add_row({"spmv_csr_parallel", std::to_string(threads),
                           fmt(base_gflops, 2), fmt(base_gbytes, 2),
                           fmt(base_gbytes / std::max(roofs[ti], 1e-9) *
                                   100.0,
                               1),
                           "1.00", "baseline"});

            for (const KernelVariant v : kVariants) {
                EngineOptions options;
                options.threads = threads;
                options.variant = v;
                KernelEngine engine(a, options);

                const Verify mode = (v == KernelVariant::CsrScalar ||
                                     v == KernelVariant::CsrPrefetch)
                                        ? Verify::Bitwise
                                        : Verify::Tolerance;
                const std::string err = verify_variant(a, engine, mode);
                if (!err.empty()) {
                    all_verified = false;
                    std::cerr << "VERIFY FAILED " << c.name << "/"
                              << to_string(v) << " t=" << threads << ": "
                              << err << "\n";
                    continue;
                }

                engine.run_iterations(x, y, 1);  // warm-up
                Timer timer;
                engine.run_iterations(x, y, iters);
                const double seconds = timer.seconds();
                VariantResult vr;
                vr.variant = v;
                vr.threads = threads;
                vr.info = engine.info();
                vr.gflops = seconds > 0
                                ? flops_per_iter *
                                      static_cast<double>(iters) / seconds /
                                      1e9
                                : 0.0;
                vr.gbytes = seconds > 0
                                ? spmv_bytes(a) *
                                      static_cast<double>(iters) / seconds /
                                      1e9
                                : 0.0;
                vr.speedup =
                    base_gflops > 0 ? vr.gflops / base_gflops : 0.0;
                mr.variants.push_back(vr);

                std::string note;
                if (v == KernelVariant::CsrPrefetch)
                    note = "d=" +
                           std::to_string(vr.info.prefetch_distance);
                else if (v == KernelVariant::CsrSimd ||
                         v == KernelVariant::SellSimd)
                    note = simd::to_string(vr.info.isa);
                if (v == KernelVariant::SellScalar ||
                    v == KernelVariant::SellSimd)
                    note += (note.empty() ? "beta=" : " beta=") +
                            fmt(vr.info.sell_padding, 2);
                table.add_row({to_string(v), std::to_string(threads),
                               fmt(vr.gflops, 2), fmt(vr.gbytes, 2),
                               fmt(vr.gbytes /
                                       std::max(roofs[ti], 1e-9) * 100.0,
                                   1),
                               fmt(vr.speedup, 2), note});
                if (vr.speedup > mr.best_speedup) {
                    mr.best_speedup = vr.speedup;
                    mr.best_label = std::string(to_string(v)) + " t=" +
                                    std::to_string(threads);
                }
            }
        }

        std::cout << c.name << ": " << a.rows() << " rows, " << a.nnz()
                  << " nnz, " << iters << " iters (triad roof";
        for (std::size_t ti = 0; ti < roofs.size(); ++ti)
            std::cout << (ti == 0 ? " " : " / ") << fmt(roofs[ti], 1)
                      << " GB/s @t" << thread_counts[ti];
        std::cout << ")\n";
        table.render(std::cout);
        std::cout << "best: " << mr.best_label << " at "
                  << fmt(mr.best_speedup, 2) << "x baseline\n\n";
        if (mr.best_speedup > overall_best) {
            overall_best = mr.best_speedup;
            overall_label = mr.name + "/" + mr.best_label;
        }
        results.push_back(std::move(mr));
    }

    std::cout << (all_verified
                      ? "all variants match the sequential kernel\n"
                      : "VERIFICATION FAILURES (see stderr)\n");
    std::cout << "best overall: " << overall_label << " at "
              << fmt(overall_best, 2) << "x spmv_csr_parallel\n";

    const std::string out_path = cli.get("out", "BENCH_spmv_kernel.json");
    std::ofstream out(out_path);
    if (out) {
        out << "{\"bench\": \"spmv_kernel\", \"smoke\": "
            << (smoke ? "true" : "false") << ", \"simd\": \""
            << simd::to_string(simd::best().isa) << "\",\n \"triad_roof\": [";
        for (std::size_t ti = 0; ti < roofs.size(); ++ti)
            out << (ti ? ", " : "") << "{\"threads\": " << thread_counts[ti]
                << ", \"gbytes_per_sec\": " << roofs[ti] << "}";
        out << "],\n \"verified\": " << (all_verified ? "true" : "false")
            << ", \"best_speedup\": " << overall_best << ",\n"
            << " \"matrices\": [\n";
        for (std::size_t m = 0; m < results.size(); ++m) {
            const MatrixResult& mr = results[m];
            out << "  {\"name\": \"" << mr.name << "\", \"rows\": "
                << mr.rows << ", \"nnz\": " << mr.nnz
                << ", \"best_speedup\": " << mr.best_speedup
                << ", \"best\": \"" << mr.best_label << "\",\n"
                << "   \"baseline_gflops\": [";
            for (std::size_t ti = 0; ti < mr.baseline_gflops.size(); ++ti)
                out << (ti ? ", " : "") << mr.baseline_gflops[ti];
            out << "],\n   \"variants\": [\n";
            for (std::size_t v = 0; v < mr.variants.size(); ++v) {
                const VariantResult& vr = mr.variants[v];
                out << "    {\"variant\": \"" << to_string(vr.variant)
                    << "\", \"threads\": " << vr.threads
                    << ", \"gflops\": " << vr.gflops
                    << ", \"gbytes_per_sec\": " << vr.gbytes
                    << ", \"speedup\": " << vr.speedup
                    << ", \"isa\": \"" << simd::to_string(vr.info.isa)
                    << "\", \"prefetch_distance\": "
                    << vr.info.prefetch_distance << "}"
                    << (v + 1 < mr.variants.size() ? "," : "") << "\n";
            }
            out << "   ]}" << (m + 1 < results.size() ? "," : "") << "\n";
        }
        out << " ]}\n";
        std::cout << "perf point written to " << out_path << "\n";
    } else {
        std::cerr << "cannot write " << out_path << "\n";
    }

    // ---- 64-vs-32 index-width leg -------------------------------------
    // Same matrix, same kernel variant (the SIMD CSR kernel — it streams
    // colidx hardest), both physical widths, at the largest team size.
    // The .spmvc footprint of each width rides along so one JSON carries
    // both halves of the narrow-index claim: faster SpMV, smaller cache.
    namespace fs = std::filesystem;
    const fs::path width_work =
        fs::temp_directory_path() /
        ("spmvcache_bench_width_" + std::to_string(::getpid()));
    fs::create_directories(width_work);

    const std::int64_t width_threads = thread_counts.back();
    std::vector<WidthResult> width_results;
    TextTable width_table({"matrix", "w32 GFLOP/s", "w64 GFLOP/s",
                           "32/64", "w32 .spmvc", "w64 .spmvc", "size"});
    for (const auto& c : cases) {
        const CsrMatrix& a32 = c.matrix;
        const CsrMatrix64 a64 = convert_csr_width<Idx64>(CsrView(a32));
        const std::int64_t iters =
            smoke ? 3
                  : std::max<std::int64_t>(
                        5, (std::int64_t{1} << 28) /
                               std::max<std::int64_t>(a32.nnz(), 1));
        const auto x = random_vector(static_cast<std::size_t>(a32.cols()),
                                     seed);
        std::vector<double> y(static_cast<std::size_t>(a32.rows()), 0.0);

        EngineOptions options;
        options.threads = width_threads;
        options.variant = KernelVariant::CsrSimd;

        WidthResult wr;
        wr.name = c.name;
        wr.rows = a32.rows();
        wr.nnz = a32.nnz();
        wr.gflops_w32 = time_width_leg<KernelEngine>(
            CsrView(a32), options, iters, x, std::span<double>(y));
        wr.gflops_w64 = time_width_leg<KernelEngine64>(
            CsrView64(a64), options, iters, x, std::span<double>(y));
        wr.speedup_32_over_64 =
            wr.gflops_w64 > 0 ? wr.gflops_w32 / wr.gflops_w64 : 0.0;

        const auto entry_bytes = [&](const auto& m,
                                     const char* tag) -> std::uint64_t {
            const std::string path =
                (width_work / (c.name + std::string(".") + tag + ".spmvc"))
                    .string();
            const Status written = write_binary_cache(
                path, m, fingerprint_matrix(m), compute_stats(m),
                "bench://" + std::string(c.name), SourceStamp{});
            if (!written.ok()) return 0;
            return static_cast<std::uint64_t>(fs::file_size(path));
        };
        wr.spmvc_bytes_w32 = entry_bytes(CsrView(a32), "w32");
        wr.spmvc_bytes_w64 = entry_bytes(CsrView64(a64), "w64");
        wr.size_ratio =
            wr.spmvc_bytes_w64 > 0
                ? static_cast<double>(wr.spmvc_bytes_w32) /
                      static_cast<double>(wr.spmvc_bytes_w64)
                : 0.0;

        width_table.add_row({wr.name, fmt(wr.gflops_w32, 2),
                             fmt(wr.gflops_w64, 2),
                             fmt(wr.speedup_32_over_64, 2),
                             fmt_bytes(wr.spmvc_bytes_w32),
                             fmt_bytes(wr.spmvc_bytes_w64),
                             fmt(wr.size_ratio, 2)});
        width_results.push_back(std::move(wr));
    }
    std::cout << "\nindex width: csr-simd at t=" << width_threads
              << ", 32-bit vs 64-bit colidx/rowptr\n";
    width_table.render(std::cout);

    const std::string width_out =
        cli.get("width-out", "BENCH_index_width.json");
    std::ofstream wout(width_out);
    if (wout) {
        wout << "{\"bench\": \"index_width\", \"smoke\": "
             << (smoke ? "true" : "false")
             << ", \"variant\": \"csr-simd\", \"threads\": "
             << width_threads << ", \"simd\": \""
             << simd::to_string(simd::best().isa) << "\",\n \"matrices\": [\n";
        for (std::size_t i = 0; i < width_results.size(); ++i) {
            const WidthResult& wr = width_results[i];
            wout << "  {\"name\": \"" << wr.name << "\", \"rows\": "
                 << wr.rows << ", \"nnz\": " << wr.nnz
                 << ", \"gflops_w32\": " << wr.gflops_w32
                 << ", \"gflops_w64\": " << wr.gflops_w64
                 << ", \"speedup_32_over_64\": " << wr.speedup_32_over_64
                 << ", \"spmvc_bytes_w32\": " << wr.spmvc_bytes_w32
                 << ", \"spmvc_bytes_w64\": " << wr.spmvc_bytes_w64
                 << ", \"size_ratio\": " << wr.size_ratio << "}"
                 << (i + 1 < width_results.size() ? "," : "") << "\n";
        }
        wout << " ]}\n";
        std::cout << "width comparison written to " << width_out << "\n";
    } else {
        std::cerr << "cannot write " << width_out << "\n";
    }
    std::error_code ec;
    fs::remove_all(width_work, ec);
    return all_verified ? 0 : 1;
}
