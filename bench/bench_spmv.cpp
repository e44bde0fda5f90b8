// Kernel engine throughput: every KernelVariant against the engine's own
// csr variant (Listing 1 on the same team), swept over generator matrix
// classes and team sizes, with an in-process STREAM-triad roof measured
// on the same WorkerTeam so the table reads as a roofline ("how much of
// the machine's streaming bandwidth does each SpMV variant reach").
// `auto` is timed on every cell too, with the variant it resolved to and
// its ratio to the best concrete variant of the cell.
//
// Every variant is verified against the sequential spmv_csr kernel before
// it is timed: CsrScalar and CsrPrefetch must match bit-for-bit (they
// keep Listing 1's accumulation order); the SIMD, SELL and merge variants
// reorder the per-row sums, so they are held to a tight relative
// tolerance instead.
//
// A last leg times the SIMD CSR kernel at both physical index widths.
// Writes its record to BENCH_spmv_kernel.json (--out overrides) when every
// variant verifies, and exits 1 without one otherwise. --smoke shrinks
// matrices and iteration counts for CI.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
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

/// Rows of random columns: `short_len` per row, except the first row of
/// every 256-row window (one sigma window of the engine's SELL layout),
/// which holds `long_len`. Sorting cannot hide those rows: each pads its
/// chunk's other seven lanes to its length.
CsrMatrix long_row_windows(std::int64_t rows, std::int64_t long_len,
                           std::int64_t short_len, std::uint64_t seed) {
    CsrBuilder b(rows, rows);
    Xoshiro256 rng(seed);
    std::vector<std::int32_t> cols;
    for (std::int64_t r = 0; r < rows; ++r) {
        const std::int64_t len = r % 256 == 0 ? long_len : short_len;
        cols.clear();
        for (std::int64_t j = 0; j < len; ++j)
            cols.push_back(static_cast<std::int32_t>(
                rng.uniform() * static_cast<double>(rows)));
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        for (const std::int32_t c : cols) b.push(r, c, rng.uniform());
    }
    return std::move(b).finish();
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
                                    {"smoke", "seed", "threads", "out"});
    const bool smoke = cli.has("smoke");
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 42));

    // Matrix classes: best-case x locality (stencil), banded FEM-like,
    // worst-case x locality (uniform random), a row-imbalanced class for
    // the merge variant (randomcv's generator at mean 16), and one 128-
    // nonzero row per window of 8-nonzero rows, whose sigma-sorted SELL
    // layout pads by ~39 %: the cells on either side of auto's padding
    // bound.
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
    cases.push_back({"longrow", long_row_windows(nr, 128, 8, seed)});
    const auto iters_for = [smoke](const CsrMatrix& a) {
        return smoke ? std::int64_t{3}
                     : std::max<std::int64_t>(
                           5, (std::int64_t{1} << 28) /
                                  std::max<std::int64_t>(a.nnz(), 1));
    };

    std::vector<std::int64_t> thread_counts = {1};
    const std::int64_t max_threads = cli.get_int("threads", 2);
    for (std::int64_t t = 2; t <= max_threads; t *= 2)
        thread_counts.push_back(t);

    // csr first: every other variant is reported against it; auto last,
    // against the best of the concrete ones.
    static constexpr KernelVariant kVariants[] = {
        KernelVariant::CsrScalar,   KernelVariant::CsrPrefetch,
        KernelVariant::CsrSimd,     KernelVariant::SellScalar,
        KernelVariant::SellSimd,    KernelVariant::CsrMerge,
        KernelVariant::Auto,
    };

    std::cout << "host SIMD: " << simd::to_string(simd::best().isa)
              << "\n\n";

    BenchRecord record("spmv_kernel", smoke);
    record.param("seed", seed);
    record.param("threads", thread_counts.back());
    record.param("isa", simd::to_string(simd::best().isa));

    // The roof per team size, shared across matrices.
    const std::size_t triad_n = smoke ? (std::size_t{1} << 20)
                                      : (std::size_t{1} << 25);
    const int triad_reps = smoke ? 3 : 10;
    record.param("triad_doubles", triad_n);
    std::vector<double> roofs;
    for (const std::int64_t t : thread_counts) {
        roofs.push_back(stream_triad_roof(t, triad_n, triad_reps));
        record.metric("triad_gbs.t" + std::to_string(t), "GB/s",
                      roofs.back(), triad_reps);
    }

    bool all_verified = true;
    double overall_best = 0.0;
    std::string overall_label;

    for (const auto& c : cases) {
        const CsrMatrix& a = c.matrix;
        const std::int64_t iters = iters_for(a);
        const std::string at = std::string(c.name) + ".";
        record.param(at + "rows", a.rows());
        record.param(at + "nnz", a.nnz());
        record.param(at + "iters", iters);
        const double flops_per_iter = 2.0 * static_cast<double>(a.nnz());
        const auto x = random_vector(static_cast<std::size_t>(a.cols()),
                                     seed);
        std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
        double best_speedup = 0.0;
        std::string best_label;

        TextTable table({"variant", "threads", "GFLOP/s", "GB/s",
                         "% roof", "vs csr", "note"});

        for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
            const std::int64_t threads = thread_counts[ti];
            const std::string on = ".t" + std::to_string(threads);
            double csr_gflops = 0.0;  // set by kVariants' first row
            double best_concrete = 0.0;

            for (const KernelVariant v : kVariants) {
                EngineOptions options;
                options.threads = threads;
                options.variant = v;
                KernelEngine engine(a, options);
                const KernelVariant resolved = engine.info().variant;

                const Verify mode = (resolved == KernelVariant::CsrScalar ||
                                     resolved == KernelVariant::CsrPrefetch)
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
                const EngineInfo info = engine.info();
                const double gflops =
                    seconds > 0 ? flops_per_iter *
                                      static_cast<double>(iters) / seconds /
                                      1e9
                                : 0.0;
                const double gbytes =
                    seconds > 0 ? spmv_bytes(a) *
                                      static_cast<double>(iters) / seconds /
                                      1e9
                                : 0.0;
                if (v == KernelVariant::CsrScalar) csr_gflops = gflops;
                const double speedup =
                    csr_gflops > 0 ? gflops / csr_gflops : 0.0;
                record.metric(at + to_string(v) + "_gflops" + on,
                              "GFLOP/s", gflops, iters);

                std::string note;
                const auto add_note = [&note](const std::string& piece) {
                    if (!note.empty()) note += ' ';
                    note += piece;
                };
                if (v == KernelVariant::Auto) {
                    const double vs_best =
                        best_concrete > 0 ? gflops / best_concrete : 0.0;
                    record.param(at + "auto_variant" + on,
                                 to_string(resolved));
                    record.metric(at + "auto_vs_best" + on, "ratio",
                                  vs_best, iters);
                    add_note(std::string("-> ") + to_string(resolved) + ",");
                    add_note(fmt(vs_best, 2) + "x best");
                } else {
                    best_concrete = std::max(best_concrete, gflops);
                }
                if (resolved == KernelVariant::CsrPrefetch) {
                    add_note("d=" + std::to_string(info.prefetch_distance));
                    if (v == KernelVariant::CsrPrefetch)
                        record.param(at + "prefetch_distance" + on,
                                     info.prefetch_distance);
                } else if (resolved == KernelVariant::CsrSimd ||
                           resolved == KernelVariant::SellSimd) {
                    add_note(simd::to_string(info.isa));
                }
                if (info.sell_padding > 0.0)
                    add_note("beta=" + fmt(info.sell_padding, 2));
                if (v == KernelVariant::SellScalar && ti == 0)
                    record.param(at + "sell_padding", info.sell_padding);
                if (v == KernelVariant::CsrScalar)
                    record.param(at + "imbalance" + on, info.imbalance);
                table.add_row({to_string(v), std::to_string(threads),
                               fmt(gflops, 2), fmt(gbytes, 2),
                               fmt(gbytes / std::max(roofs[ti], 1e-9) *
                                       100.0,
                                   1),
                               fmt(speedup, 2), note});
                if (speedup > best_speedup) {
                    best_speedup = speedup;
                    best_label = std::string(to_string(v)) + " t=" +
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
        std::cout << "best: " << best_label << " at "
                  << fmt(best_speedup, 2) << "x csr\n\n";
        if (best_speedup > overall_best) {
            overall_best = best_speedup;
            overall_label = std::string(c.name) + "/" + best_label;
        }
    }

    std::cout << (all_verified
                      ? "all variants match the sequential kernel\n"
                      : "VERIFICATION FAILURES (see stderr)\n");
    std::cout << "best overall: " << overall_label << " at "
              << fmt(overall_best, 2) << "x csr\n";
    if (!all_verified) return 1;

    // ---- 64-vs-32 index-width leg -------------------------------------
    // Same matrix, same kernel variant (the SIMD CSR kernel — it streams
    // colidx hardest), both physical widths, at the largest team size.
    const std::int64_t width_threads = thread_counts.back();
    const std::string on = ".t" + std::to_string(width_threads);
    TextTable width_table({"matrix", "w32 GFLOP/s", "w64 GFLOP/s", "32/64"});
    for (const auto& c : cases) {
        const CsrMatrix& a32 = c.matrix;
        const CsrMatrix64 a64 = convert_csr_width<Idx64>(CsrView(a32));
        const std::int64_t iters = iters_for(a32);
        const auto x = random_vector(static_cast<std::size_t>(a32.cols()),
                                     seed);
        std::vector<double> y(static_cast<std::size_t>(a32.rows()), 0.0);

        EngineOptions options;
        options.threads = width_threads;
        options.variant = KernelVariant::CsrSimd;
        const double w32 = time_width_leg<KernelEngine>(
            CsrView(a32), options, iters, x, std::span<double>(y));
        const double w64 = time_width_leg<KernelEngine64>(
            CsrView64(a64), options, iters, x, std::span<double>(y));
        const std::string at = std::string(c.name) + ".csr-simd_";
        record.metric(at + "w32_gflops" + on, "GFLOP/s", w32, iters);
        record.metric(at + "w64_gflops" + on, "GFLOP/s", w64, iters);
        width_table.add_row({c.name, fmt(w32, 2), fmt(w64, 2),
                             fmt(w64 > 0 ? w32 / w64 : 0.0, 2)});
    }
    std::cout << "\nindex width: csr-simd at t=" << width_threads
              << ", 32-bit vs 64-bit colidx/rowptr\n";
    width_table.render(std::cout);

    return record.write(cli.get("out", "BENCH_spmv_kernel.json")) ? 0 : 1;
}
