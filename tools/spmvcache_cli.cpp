// spmvcache — command-line front end to the library.
//
//   spmvcache stats    <matrix.mtx>                  matrix statistics
//   spmvcache classify <matrix.mtx> [--ways N]       §3.1 size class
//   spmvcache predict  <matrix.mtx> [--threads T]    method A/B misses
//   spmvcache simulate <matrix.mtx> [--threads T] [--l2-ways N] [--l1-ways N]
//   spmvcache tune     <matrix.mtx> [--threads T]    best sector config
//   spmvcache convert  <in.mtx> <out.mtx> [--rcm]    reorder / normalise
//   spmvcache batch    <dir|list|matrix.mtx>         isolated sweep + report
//   spmvcache serve                                  JSONL prediction daemon
//   spmvcache cache    warm|inspect ...              .spmvc binary cache ops
//   spmvcache kernelbench <matrix.mtx> [--threads T] [--variant V]
//                                                    time the kernel engine
//
// Every subcommand also accepts --gen FAMILY:ARG (e.g. --gen stencil2d5:512)
// instead of a .mtx path, for experimentation without input files.
//
// With --cache-dir DIR, file loads go through the `.spmvc` binary cache
// (sparse/binary_cache.hpp): the first load parses and writes a cache
// entry, later loads mmap it zero-copy. --parse-jobs N parses .mtx text
// with N workers on a miss (default 0 = all cores, serve 1; results are
// identical for every N).
//
// Exit codes are standardised: 0 = success, 1 = input/matrix errors (for
// `batch`: some matrices failed — including matrices still pending when a
// SIGINT/SIGTERM drain stopped the sweep), 2 = usage error or unexpected
// fatal condition. All input failures flow through the typed Status layer
// (util/status.hpp); the top-level catch only sees programmer errors.
// SIGINT/SIGTERM never kill `batch` or `serve` mid-run: both drain
// gracefully and still emit their reports.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/spmvcache.hpp"
#include "kernels/engine.hpp"
#include "serve/server.hpp"
#include "sync/thread_pool.hpp"
#include "trace/sample.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/signal.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace spmvcache;

[[noreturn]] void usage() {
    std::cerr
        << "usage: spmvcache <command> [<matrix.mtx> | --gen FAMILY:N] "
           "[options]\n"
           "commands:\n"
           "  stats     matrix statistics (mu_K, CV_K, working set)\n"
           "  classify  working-set class per Breiter et al. §3.1\n"
           "  predict   model the L2 misses of every sector config\n"
           "  simulate  run one config on the simulated A64FX\n"
           "  tune      recommend the best sector configuration\n"
           "  convert   rewrite a matrix (optionally RCM-reordered)\n"
           "  batch     model a directory/list of matrices with per-matrix\n"
           "            isolation and a machine-readable failure report\n"
           "  serve     long-running JSONL daemon on stdin/stdout: predict,\n"
           "            tune, stats, health, shutdown requests with a\n"
           "            fingerprint-keyed plan cache and graceful drain\n"
           "  cache     warm or inspect the .spmvc binary matrix cache:\n"
           "            cache warm <dir|list|matrix.mtx> --cache-dir DIR\n"
           "            cache inspect <entry.spmvc | matrix.mtx --cache-dir "
           "DIR>\n"
           "  kernelbench  run the SpMV kernel engine on the host and time\n"
           "            its variants against the spmv_csr_parallel baseline\n"
           "options: --threads T --l2-ways N --l1-ways N --method a|b "
           "--rcm --gen FAMILY:N --strict\n"
           "         --index-width auto|32|64  physical colidx/rowptr\n"
           "                   element width: auto (default) narrows to\n"
           "                   32-bit whenever rows/cols/nnz fit, 64\n"
           "                   forces the wide layout, 32 fails with a\n"
           "                   typed error on unrepresentable shapes\n"
           "         --cache-dir DIR  .spmvc binary cache for file loads\n"
           "                   (stats/predict/tune/batch/serve/cache; a\n"
           "                   valid entry is mmapped instead of parsed)\n"
           "         --parse-jobs N  .mtx parse workers on a cache miss\n"
           "                   (default 0 = all cores, serve 1; 1 parses\n"
           "                   inline; the resulting matrix is identical)\n"
           "         --jobs J  host workers for the sharded model (0 = all\n"
           "                   hardware threads, 1 = serial; predictions\n"
           "                   are identical for every value)\n"
           "         --approx[=R]  SHARDS-sampled approximate model\n"
           "                   (predict/tune/batch): process only refs\n"
           "                   whose line hashes below R (default 0.01)\n"
           "                   and scale the totals by 1/R -- order-of-\n"
           "                   magnitude faster, typically within a few\n"
           "                   percent; outputs are marked as sampled\n"
           "classify: --ways N  L2 ways isolated for sector 1, in [0, 15]\n"
           "                   (default 5)\n"
           "predict: --json FILE  machine-readable predictions + per-shard\n"
           "                      timing/reference instrumentation\n"
           "predict/tune: --timeout SECONDS  wall-clock budget for the run\n"
           "                      (0 = none; same mechanism as batch/serve)\n"
           "batch:   --report FILE --format csv|json --timeout SECONDS\n"
           "         --no-model --no-retry\n"
           "         SIGINT/SIGTERM drain the sweep: finished matrices are\n"
           "         reported, pending ones are marked Cancelled (exit 1)\n"
           "serve:   --workers N (0 = host cores) --queue N (>= 1)\n"
           "         --cache-bytes B (0 disables) --strikes N (>= 1)\n"
           "         --timeout SECONDS --retries N (>= 0)\n"
           "         --max-request-bytes B (>= 1)\n"
           "         --source-cache N  loaded matrices kept resident (8)\n"
           "         requests on stdin, one JSON object per line; responses\n"
           "         on stdout; lifecycle + final stats on stderr\n"
           "kernelbench: --variant csr|csr-prefetch|csr-simd|sell|\n"
           "             sell-simd|merge|auto (default: all + auto pick)\n"
           "             --threads T (0 = all hardware threads, at most\n"
           "             the host's) --iters N (>= 1)\n"
           "             --prefetch-distance D (>= 0; 0 = calibrate)\n"
           "             --report FILE --format csv|json\n"
           "families: stencil2d5 stencil3d27 banded circuit random "
           "randomcv blockfem\n"
           "a flag the command does not take is a usage error\n"
           "exit codes: 0 ok, 1 input/matrix failures, 2 usage or fatal\n";
    std::exit(kExitUsage);
}

void report_error(const Error& e) {
    std::cerr << "error: " << e.render() << "\n";
}

/// Resolves --approx[=R] into a ModelOptions::sample_rate: absent = 1
/// (exact), bare --approx = 0.01, --approx=R = R. Rates that fail
/// valid_sample_rate are a usage error.
[[nodiscard]] Result<double> approx_rate(const CliParser& cli) {
    if (!cli.has("approx")) return 1.0;
    const double rate = cli.get_double("approx", 0.01);
    if (!valid_sample_rate(rate))
        return Error(ErrorCode::ValidationError,
                     "--approx rate must be in [2^-53, 1]");
    return rate;
}

/// Reads --threads (simulated threads, default 48) and --jobs (host model
/// workers, default 0 = one per hardware thread). A thread count outside
/// [1, machine cores] or a negative job count is a usage error.
[[nodiscard]] Status thread_counts(const CliParser& cli, std::int64_t& threads,
                                   std::int64_t& jobs) {
    const std::int64_t cores = a64fx_default().cores;
    threads = cli.get_int("threads", 48);
    jobs = cli.get_int("jobs", 0);
    if (threads < 1 || threads > cores)
        return Error(ErrorCode::ValidationError,
                     "--threads must be in [1, " + std::to_string(cores) +
                         "]");
    if (jobs < 0)
        return Error(ErrorCode::ValidationError, "--jobs must be >= 0");
    return OkStatus();
}

/// Reads --timeout, the wall-clock budget in seconds predict, tune, batch
/// and serve share (default and <= 0: none). NaN is a usage error.
[[nodiscard]] Result<double> timeout_seconds(const CliParser& cli) {
    const double seconds = cli.get_double("timeout", 0.0);
    if (std::isnan(seconds))
        return Error(ErrorCode::ValidationError,
                     "--timeout must be a number of seconds");
    return seconds;
}

/// Reads the integer flag `flag` (default `fallback`); a value below
/// `least` is a usage error.
[[nodiscard]] Result<std::int64_t> int_at_least(const CliParser& cli,
                                                const char* flag,
                                                std::int64_t fallback,
                                                std::int64_t least) {
    const std::int64_t n = cli.get_int(flag, fallback);
    if (n < least)
        return Error(ErrorCode::ValidationError,
                     std::string("--") + flag + " must be >= " +
                         std::to_string(least));
    return n;
}

/// Reads the model flags predict and tune share (--threads, --jobs,
/// --timeout, --approx) over the op's defaults in `options`. Out-of-range
/// values are usage errors.
[[nodiscard]] Status model_flags(const CliParser& cli, ModelOptions& options) {
    SPMV_RETURN_IF_ERROR(thread_counts(cli, options.threads, options.jobs));
    SPMV_ASSIGN_OR_RETURN(options.timeout_seconds, timeout_seconds(cli));
    SPMV_ASSIGN_OR_RETURN(options.sample_rate, approx_rate(cli));
    return OkStatus();
}

/// Reads a sector-1 way count of a cache level with `level_ways` ways
/// (default `fallback`). A count that would leave sector 0 no way is a
/// usage error.
[[nodiscard]] Result<std::uint32_t> sector1_ways(const CliParser& cli,
                                                 const char* flag,
                                                 std::uint32_t level_ways,
                                                 std::int64_t fallback = 0) {
    const std::int64_t n = cli.get_int(flag, fallback);
    if (n < 0 || n >= static_cast<std::int64_t>(level_ways))
        return Error(ErrorCode::ValidationError,
                     std::string("--") + flag + " must be in [0, " +
                         std::to_string(level_ways - 1) + "]");
    return static_cast<std::uint32_t>(n);
}

/// Reads --l2-ways and --l1-ways (default 0 = level unpartitioned) of
/// `machine`.
[[nodiscard]] Result<SectorWays> sector_ways(const CliParser& cli,
                                             const A64fxConfig& machine) {
    SPMV_ASSIGN_OR_RETURN(const std::uint32_t l2,
                          sector1_ways(cli, "l2-ways", machine.l2.ways));
    SPMV_ASSIGN_OR_RETURN(const std::uint32_t l1,
                          sector1_ways(cli, "l1-ways", machine.l1.ways));
    return SectorWays{l2, l1};
}

/// The .mtx ingest flags, read once for every subcommand that loads
/// matrices: --strict, --cache-dir, --parse-jobs and --index-width.
struct IngestFlags {
    bool strict = false;
    std::string cache_dir;
    std::int64_t parse_jobs = 0;
    IndexWidthChoice index_width = default_index_width_choice();

    /// Copies the flags into a MatrixSource or BatchOptions.
    template <class Target>
    void apply_to(Target& target) const {
        target.strict_parse = strict;
        target.cache_dir = cache_dir;
        target.parse_jobs = parse_jobs;
        target.index_width = index_width;
    }
};

/// Reads the ingest flags; --parse-jobs defaults to `parse_jobs` (0 = all
/// cores). A negative --parse-jobs or an unknown --index-width is a usage
/// error (ValidationError).
[[nodiscard]] Result<IngestFlags> ingest_flags(const CliParser& cli,
                                               std::int64_t parse_jobs = 0) {
    IngestFlags flags;
    flags.strict = cli.has("strict");
    flags.cache_dir = cli.get("cache-dir", "");
    flags.parse_jobs = cli.get_int("parse-jobs", parse_jobs);
    if (flags.parse_jobs < 0)
        return Error(ErrorCode::ValidationError,
                     "--parse-jobs must be >= 0");
    if (cli.has("index-width")) {
        SPMV_ASSIGN_OR_RETURN(
            flags.index_width,
            parse_index_width_choice(cli.get("index-width", "auto")));
    }
    return flags;
}

/// The ingest flags of a one-shot subcommand, or exit 2 after reporting
/// why they are unusable.
[[nodiscard]] IngestFlags ingest_flags_or_exit(const CliParser& cli) {
    Result<IngestFlags> flags = ingest_flags(cli);
    if (!flags.ok()) {
        report_error(flags.error());
        std::exit(kExitUsage);
    }
    return std::move(flags).value();
}

/// Builds the MatrixSource the flags describe; loading goes through the
/// same core/matrix_source path the serve daemon uses.
[[nodiscard]] MatrixSource matrix_source(const CliParser& cli,
                                         std::size_t arg_index) {
    MatrixSource source;
    if (cli.has("gen")) {
        source.gen_spec = cli.get("gen", "");
        source.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    } else {
        if (cli.positionals().size() <= arg_index) usage();
        source.path = cli.positionals()[arg_index];
    }
    ingest_flags_or_exit(cli).apply_to(source);
    return source;
}

/// Cache-aware load for every matrix-reading subcommand; honours
/// --cache-dir and --parse-jobs.
[[nodiscard]] Result<LoadedMatrix> load_handle(const CliParser& cli,
                                               std::size_t arg_index) {
    return load_matrix_handle(matrix_source(cli, arg_index));
}

void report_load_origin(const LoadedMatrix& loaded) {
    if (loaded.origin == LoadOrigin::CacheHit)
        std::cerr << "matrix: mmapped from .spmvc cache (zero-copy)\n";
    else if (loaded.cache_written)
        std::cerr << "matrix: parsed; .spmvc cache entry written\n";
}

int cmd_stats(const CliParser& cli) {
    const Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    report_load_origin(loaded.value());
    const MatrixStats& stats = loaded.value().stats;
    std::cout << to_string(stats) << "\n";
    TextTable t({"quantity", "value"});
    t.add_row({"rows", fmt_count(static_cast<unsigned long long>(stats.rows))});
    t.add_row({"cols", fmt_count(static_cast<unsigned long long>(stats.cols))});
    t.add_row({"nonzeros",
               fmt_count(static_cast<unsigned long long>(stats.nnz))});
    t.add_row({"mu_K (mean nnz/row)", fmt(stats.mean_nnz_per_row, 2)});
    t.add_row({"sigma_K", fmt(stats.stddev_nnz_per_row, 2)});
    t.add_row({"CV_K", fmt(stats.cv_nnz_per_row, 3)});
    t.add_row({"max nnz/row", fmt_count(static_cast<unsigned long long>(
                                  stats.max_nnz_per_row))});
    t.add_row({"empty rows", fmt_count(static_cast<unsigned long long>(
                                 stats.empty_rows))});
    t.add_row({"bandwidth", fmt_count(static_cast<unsigned long long>(
                                stats.bandwidth))});
    t.add_row({"matrix bytes", fmt_bytes(stats.matrix_bytes)});
    t.add_row({"working set", fmt_bytes(stats.working_set_bytes)});
    t.add_row({"index width",
               stats.index_width == IndexWidth::W64 ? "64-bit" : "32-bit"});
    t.add_row({"32-bit representable", stats.width32_ok ? "yes" : "no"});
    t.render(std::cout);
    if (stats.index_width == IndexWidth::W64 && stats.width32_ok)
        std::cout << "note: this matrix fits 32-bit indices; reload with "
                     "--index-width auto|32 to halve colidx/rowptr "
                     "traffic\n";
    return 0;
}

int cmd_classify(const CliParser& cli) {
    const A64fxConfig machine = a64fx_default();
    const Result<std::uint32_t> isolated =
        sector1_ways(cli, "ways", machine.l2.ways, 5);
    if (!isolated.ok()) {
        report_error(isolated.error());
        return kExitUsage;
    }
    const std::uint32_t ways = isolated.value();
    const Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    report_load_origin(loaded.value());
    const AnyCsrView m = loaded.value().view;
    const std::uint64_t sector0 =
        ways_to_lines(machine.l2, machine.l2.ways - ways) *
        machine.l2.line_bytes;
    const auto cls = classify(m, machine.l2.size_bytes, sector0);
    std::cout << "class " << to_string(cls) << " with " << ways
              << " L2 ways isolated (sector 0 = " << fmt_bytes(sector0)
              << " of " << fmt_bytes(machine.l2.size_bytes)
              << " per segment)\n";
    switch (cls) {
        case MatrixClass::Class1:
            std::cout << "everything fits in cache: no capacity misses, "
                         "sector cache not expected to help\n";
            break;
        case MatrixClass::Class2:
            std::cout << "matrix data streams but x+y+rowptr fit in sector "
                         "0: the best case for the sector cache\n";
            break;
        case MatrixClass::Class3a:
            std::cout << "x alone fits in sector 0; isolating rowptr and y "
                         "too (IsolateMatrixRowptrY) may help further\n";
            break;
        case MatrixClass::Class3b:
            std::cout << "x exceeds sector 0: partitioning only lowers x's "
                         "reuse distances, diminishing benefit\n";
            break;
    }
    return 0;
}

/// Machine-readable `predict` output: configs plus per-shard timing and
/// reference counts, so sharded-execution speedup is observable.
void write_predict_json(std::ostream& out, const ModelResult& result,
                        const ModelOptions& options, bool use_b) {
    out << "{\n  \"method\": \"" << (use_b ? "b" : "a")
        << "\",\n  \"threads\": " << options.threads
        << ",\n  \"jobs\": " << result.jobs
        << ",\n  \"seconds\": " << result.seconds
        << ",\n  \"sampled\": " << (result.sampled ? "true" : "false")
        << ",\n  \"sample_rate\": " << result.sample_rate
        << ",\n  \"sampled_refs\": " << result.sampled_refs
        << ",\n  \"x_traffic_fraction\": " << result.x_traffic_fraction
        << ",\n  \"configs\": [\n";
    for (std::size_t i = 0; i < result.configs.size(); ++i) {
        const auto& c = result.configs[i];
        out << "    {\"l2_sector_ways\": " << c.l2_sector_ways
            << ", \"l2_misses\": " << c.l2_misses
            << ", \"l2_x_misses\": " << c.l2_x_misses << "}"
            << (i + 1 < result.configs.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"shards\": [\n";
    for (std::size_t s = 0; s < result.shards.size(); ++s) {
        const auto& shard = result.shards[s];
        out << "    {\"segment\": " << shard.segment
            << ", \"threads\": " << shard.threads
            << ", \"references\": " << shard.references
            << ", \"seconds\": " << shard.seconds
            << ", \"sampled_refs\": " << shard.sampled_refs << "}"
            << (s + 1 < result.shards.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int cmd_predict(const CliParser& cli) {
    ModelOptions options;
    if (const Status flags = model_flags(cli, options); !flags.ok()) {
        report_error(flags.error());
        return kExitUsage;
    }
    Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    const LoadedMatrix m = std::move(loaded).value();
    report_load_origin(m);
    const bool use_b = to_lower(cli.get("method", "a")) == "b";
    const Result<ModelResult> modelled =
        run_model(m, options, use_b ? ModelMethod::B : ModelMethod::A);
    if (!modelled.ok()) {
        report_error(modelled.error());
        return 1;
    }
    const ModelResult& result = modelled.value();
    TextTable t({"L2 ways (sector 1)", "predicted L2 misses",
                 "x share [%]"});
    for (const auto& config : result.configs) {
        t.add_row({config.l2_sector_ways == 0
                       ? "off"
                       : std::to_string(config.l2_sector_ways),
                   fmt_count(static_cast<unsigned long long>(
                       config.l2_misses)),
                   fmt(config.l2_misses > 0
                           ? 100.0 * config.l2_x_misses / config.l2_misses
                           : 0.0,
                       1)});
    }
    t.render(std::cout, std::string("method (") + (use_b ? "B" : "A") +
                            "), " + std::to_string(options.threads) +
                            " threads:" +
                            (result.sampled
                                 ? " [SHARDS estimate, R=" +
                                       fmt(result.sample_rate, 4) + "]"
                                 : ""));
    std::cout << "model runtime: " << fmt(result.seconds, 2) << " s on "
              << result.jobs << " host job(s), "
              << result.shards.size() << " shard(s)\n";
    if (result.sampled)
        std::cout << "sampling: R=" << fmt(result.sample_rate, 4) << ", "
                  << fmt_count(static_cast<unsigned long long>(
                         result.sampled_refs))
                  << " of the demand refs reached the engines; predictions "
                     "are scaled estimates, not exact counts\n";
    for (const auto& shard : result.shards)
        std::cout << "  shard " << shard.segment << ": " << shard.threads
                  << " threads, "
                  << fmt_count(static_cast<unsigned long long>(
                         shard.references))
                  << " refs, " << fmt(shard.seconds, 3) << " s\n";

    const std::string json_path = cli.get("json", "");
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            report_error(Error(ErrorCode::ResourceError,
                               "cannot write '" + json_path + "'"));
            return 1;
        }
        write_predict_json(out, result, options, use_b);
        std::cout << "json written to " << json_path << "\n";
    }
    return 0;
}

int cmd_simulate(const CliParser& cli) {
    ExperimentOptions options;
    options.machine = a64fx_default();
    std::int64_t jobs = 0;  // simulate runs no host model workers
    if (const Status counts = thread_counts(cli, options.threads, jobs);
        !counts.ok()) {
        report_error(counts.error());
        return kExitUsage;
    }
    const Result<SectorWays> requested = sector_ways(cli, options.machine);
    if (!requested.ok()) {
        report_error(requested.error());
        return kExitUsage;
    }
    const SectorWays ways = requested.value();
    const Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    report_load_origin(loaded.value());
    const AnyCsrView m = loaded.value().view;
    const auto results =
        run_sector_sweep(m, {SectorWays{0, 0}, ways}, options);
    const auto& base = results[0];
    const auto& cfg = results[1];
    TextTable t({"quantity", "no sector cache",
                 "L2=" + std::to_string(ways.l2) +
                     " L1=" + std::to_string(ways.l1)});
    t.add_row({"L2 misses (corrected)", fmt_count(base.l2.fills()),
               fmt_count(cfg.l2.fills())});
    t.add_row({"L2 demand misses", fmt_count(base.l2.demand_misses()),
               fmt_count(cfg.l2.demand_misses())});
    t.add_row({"L1 refills", fmt_count(base.l1.refills),
               fmt_count(cfg.l1.refills)});
    t.add_row({"Gflop/s", fmt(base.timing.gflops, 1),
               fmt(cfg.timing.gflops, 1)});
    t.add_row({"bandwidth [GB/s]", fmt(base.timing.bandwidth_gbs, 1),
               fmt(cfg.timing.bandwidth_gbs, 1)});
    t.add_row({"speedup", "1.000", fmt(cfg.speedup_over(base), 3)});
    t.render(std::cout);
    return 0;
}

int cmd_tune(const CliParser& cli) {
    ModelOptions options = tune_options();
    if (const Status flags = model_flags(cli, options); !flags.ok()) {
        report_error(flags.error());
        return kExitUsage;
    }
    Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    const LoadedMatrix m = std::move(loaded).value();
    report_load_origin(m);
    const Result<ModelResult> modelled =
        run_model(m, options, ModelMethod::A);
    if (!modelled.ok()) {
        report_error(modelled.error());
        return 1;
    }
    const ModelResult& result = modelled.value();
    if (result.sampled)
        std::cout << "note: recommendation derived from a SHARDS estimate "
                     "(R=" << fmt(result.sample_rate, 4)
                  << "); re-run without --approx to confirm\n";
    const ConfigPrediction& best = result.best();
    if (best.l2_sector_ways == 0) {
        std::cout << "recommendation: leave the sector cache off\n";
    } else {
        const double baseline = result.configs.front().l2_misses;
        std::cout << "recommendation:\n"
                  << "  #pragma procedure scache_isolate_way L2="
                  << best.l2_sector_ways << "\n"
                  << "  #pragma procedure scache_isolate_assign a colidx\n"
                  << "predicted L2 miss reduction: "
                  << fmt(100.0 * (baseline - best.l2_misses) / baseline, 1)
                  << " %\n";
    }
    return 0;
}

int cmd_convert(const CliParser& cli) {
    if (cli.positionals().size() < 3 && !cli.has("gen")) usage();
    const Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    // RCM and the .mtx writer operate on the narrow layout; a wide load of
    // a 32-bit-representable matrix is narrowed here (the text output is
    // width-independent anyway). Shapes that genuinely need 64-bit indices
    // cannot be converted yet.
    const AnyCsrView& any = loaded.value().view;
    if (any.index_width() == IndexWidth::W64 &&
        !width32_representable(any.rows(), any.cols(), any.nnz())) {
        report_error(Error(ErrorCode::UnsupportedError,
                           "convert requires a 32-bit-representable "
                           "matrix"));
        return 1;
    }
    const CsrMatrix m = any.visit(
        [](const auto& v) { return convert_csr_width<Idx32>(v); });
    const std::string out = cli.positionals().back();
    const CsrMatrix result = cli.has("rcm") ? rcm_reorder(m) : m;
    try {
        write_matrix_market_file(out, result);
    } catch (const StatusError& e) {
        report_error(e.error());
        return 1;
    }
    std::cout << "wrote " << out << " ("
              << fmt_count(static_cast<unsigned long long>(result.nnz()))
              << " nonzeros" << (cli.has("rcm") ? ", RCM-reordered" : "")
              << ")\n";
    return 0;
}

int cmd_batch(const CliParser& cli) {
    if (cli.positionals().size() < 2) usage();
    const Result<std::vector<std::string>> paths =
        collect_matrix_paths(cli.positionals()[1]);
    if (!paths.ok()) {
        report_error(paths.error());
        return kExitUsage;
    }

    BatchOptions options;
    ingest_flags_or_exit(cli).apply_to(options);
    options.run_model = !cli.has("no-model");
    if (const Status counts =
            thread_counts(cli, options.threads, options.jobs);
        !counts.ok()) {
        report_error(counts.error());
        return kExitUsage;
    }
    const Result<double> timeout = timeout_seconds(cli);
    if (!timeout.ok()) {
        report_error(timeout.error());
        return kExitUsage;
    }
    options.timeout_seconds = timeout.value();
    options.retry_transient = !cli.has("no-retry");
    const Result<double> rate = approx_rate(cli);
    if (!rate.ok()) {
        report_error(rate.error());
        return kExitUsage;
    }
    options.sample_rate = rate.value();

    // SIGINT/SIGTERM drain the sweep instead of killing it: the current
    // matrix finishes, pending ones are recorded as Cancelled, and the
    // report below is still written.
    if (!drain::install_drain_handlers()) {
        report_error(Error(ErrorCode::ResourceError,
                           "cannot install SIGINT/SIGTERM drain handlers"));
        return kExitUsage;
    }
    options.cancel_check = [] { return drain::requested(); };

    const BatchReport report = run_batch(paths.value(), options);
    if (drain::requested())
        std::cerr << "batch: drained after signal " << drain::signal_number()
                  << "; partial report follows\n";

    TextTable t({"matrix", "status", "stage", "load", "error", "rows",
                 "nnz", "best L2 ways"});
    for (const auto& item : report.items) {
        t.add_row({item.name, item.ok ? "ok" : "FAILED",
                   to_string(item.stage),
                   item.ok ? item.load_origin : "-",
                   item.ok ? "-" : to_string(item.code),
                   fmt_count(static_cast<unsigned long long>(item.rows)),
                   fmt_count(static_cast<unsigned long long>(item.nnz)),
                   item.ok && options.run_model
                       ? (item.best_l2_ways == 0
                              ? std::string("off")
                              : std::to_string(item.best_l2_ways))
                       : "-"});
    }
    t.render(std::cout);
    std::cout << report.succeeded() << "/" << report.items.size()
              << " matrices ok, " << report.failed() << " failed\n";
    for (const auto& item : report.items)
        if (!item.ok)
            std::cerr << "failed: " << item.name << " [" << to_string(item.stage)
                      << "/" << to_string(item.code) << "] " << item.message
                      << "\n";

    const std::string report_path = cli.get("report", "");
    if (!report_path.empty()) {
        std::ofstream out(report_path);
        if (!out) {
            report_error(Error(ErrorCode::ResourceError,
                               "cannot write report '" + report_path + "'"));
            return kExitUsage;
        }
        const std::string format = to_lower(cli.get(
            "format", report_path.size() > 5 &&
                              report_path.substr(report_path.size() - 5) ==
                                  ".json"
                          ? "json"
                          : "csv"));
        if (format == "json")
            write_batch_report_json(out, report);
        else
            write_batch_report_csv(out, report);
        std::cout << "report written to " << report_path << " (" << format
                  << ")\n";
    }
    return report.exit_code();
}

/// Reads serve's flags into `options`. Out-of-range counts are usage
/// errors.
[[nodiscard]] Status serve_flags(const CliParser& cli, ServeOptions& options) {
    SPMV_ASSIGN_OR_RETURN(options.workers, int_at_least(cli, "workers", 2, 0));
    SPMV_ASSIGN_OR_RETURN(const std::int64_t queue,
                          int_at_least(cli, "queue", 64, 1));
    options.queue_capacity = static_cast<std::size_t>(queue);
    if (cli.has("cache-bytes")) {
        SPMV_ASSIGN_OR_RETURN(const std::int64_t bytes,
                              int_at_least(cli, "cache-bytes", 0, 0));
        options.cache_capacity_bytes = static_cast<std::uint64_t>(bytes);
    }
    SPMV_ASSIGN_OR_RETURN(const std::int64_t strikes,
                          int_at_least(cli, "strikes", 3, 1));
    options.quarantine_strikes = static_cast<int>(
        std::min<std::int64_t>(strikes, std::numeric_limits<int>::max()));
    SPMV_ASSIGN_OR_RETURN(options.default_timeout_seconds,
                          timeout_seconds(cli));
    SPMV_ASSIGN_OR_RETURN(const std::int64_t retries,
                          int_at_least(cli, "retries", 2, 0));
    options.max_retries = static_cast<int>(
        std::min<std::int64_t>(retries, std::numeric_limits<int>::max()));
    if (cli.has("max-request-bytes")) {
        SPMV_ASSIGN_OR_RETURN(const std::int64_t bytes,
                              int_at_least(cli, "max-request-bytes", 1, 1));
        options.max_request_bytes = static_cast<std::size_t>(bytes);
    }
    // Serve workers already share the cores: one parse job each.
    SPMV_ASSIGN_OR_RETURN(const IngestFlags ingest,
                          ingest_flags(cli, /*parse_jobs=*/1));
    options.cache_dir = ingest.cache_dir;
    options.parse_jobs = ingest.parse_jobs;
    SPMV_ASSIGN_OR_RETURN(const std::int64_t sources,
                          int_at_least(cli, "source-cache", 8, 1));
    options.source_cache_entries = static_cast<std::size_t>(sources);
    return OkStatus();
}

int cmd_serve(const CliParser& cli) {
    ServeOptions options;
    if (const Status flags = serve_flags(cli, options); !flags.ok()) {
        report_error(flags.error());
        return kExitUsage;
    }

    // No SA_RESTART: a blocked stdin read returns with EINTR so the loop
    // notices the drain request instead of dying mid-response.
    if (!drain::install_drain_handlers()) {
        report_error(Error(ErrorCode::ResourceError,
                           "cannot install SIGINT/SIGTERM drain handlers"));
        return kExitUsage;
    }
    Server server(options);
    return server.run(std::cin, std::cout, std::cerr);
}

/// `spmvcache cache warm <dir|list|matrix.mtx> --cache-dir DIR`: parse
/// every matrix once and write (or refresh) its .spmvc entry, so later
/// predict/batch/serve runs mmap instead of parsing.
int cmd_cache_warm(const CliParser& cli) {
    if (cli.positionals().size() < 3) usage();
    const IngestFlags ingest = ingest_flags_or_exit(cli);
    if (ingest.cache_dir.empty()) {
        report_error(Error(ErrorCode::ValidationError,
                           "cache warm requires --cache-dir DIR"));
        return kExitUsage;
    }
    const Result<std::vector<std::string>> paths =
        collect_matrix_paths(cli.positionals()[2]);
    if (!paths.ok()) {
        report_error(paths.error());
        return kExitUsage;
    }
    std::size_t failures = 0;
    for (const std::string& path : paths.value()) {
        MatrixSource source;
        source.path = path;
        ingest.apply_to(source);
        const Timer timer;
        const Result<LoadedMatrix> loaded = load_matrix_handle(source);
        if (!loaded.ok()) {
            ++failures;
            std::cout << path << ": FAILED ("
                      << to_string(loaded.error().code) << ")\n";
            std::cerr << "failed: " << path << ": "
                      << loaded.error().render() << "\n";
            continue;
        }
        const LoadedMatrix& m = loaded.value();
        std::cout << path << ": " << to_string(m.origin);
        if (m.cache_written) std::cout << ", cache written";
        std::cout << " ("
                  << fmt_count(
                         static_cast<unsigned long long>(m.view.nnz()))
                  << " nnz, "
                  << (m.view.index_width() == IndexWidth::W64 ? "64" : "32")
                  << "-bit indices, " << fmt(timer.seconds(), 3)
                  << " s) -> "
                  << spmvc_cache_path(ingest.cache_dir, path, ingest.strict)
                  << "\n";
    }
    std::cout << paths.value().size() - failures << "/"
              << paths.value().size() << " cache entries warm\n";
    return failures == 0 ? kExitOk : kExitSomeFailed;
}

/// `spmvcache cache inspect <entry.spmvc | matrix.mtx --cache-dir DIR>`:
/// decode and print a cache header without touching the array sections.
int cmd_cache_inspect(const CliParser& cli) {
    if (cli.positionals().size() < 3) usage();
    const std::string target = cli.positionals()[2];
    std::string entry = target;
    // A .mtx argument names its entry indirectly through --cache-dir.
    if (target.size() < 6 ||
        target.substr(target.size() - 6) != ".spmvc") {
        const IngestFlags ingest = ingest_flags_or_exit(cli);
        if (ingest.cache_dir.empty()) {
            report_error(Error(ErrorCode::ValidationError,
                               "cache inspect needs a .spmvc path, or a "
                               "matrix path plus --cache-dir DIR"));
            return kExitUsage;
        }
        entry = spmvc_cache_path(ingest.cache_dir, target, ingest.strict);
    }
    const Result<SpmvcInfo> info = inspect_binary_cache(entry);
    if (!info.ok()) {
        report_error(info.error());
        return 1;
    }
    const SpmvcInfo& i = info.value();
    TextTable t({"field", "value"});
    t.add_row({"entry", entry});
    t.add_row({"format version", std::to_string(i.format_version)});
    t.add_row({"rows", fmt_count(static_cast<unsigned long long>(i.rows))});
    t.add_row({"cols", fmt_count(static_cast<unsigned long long>(i.cols))});
    t.add_row(
        {"nonzeros", fmt_count(static_cast<unsigned long long>(i.nnz))});
    t.add_row({"source path", i.source_path});
    t.add_row({"source size", fmt_bytes(i.source.size)});
    t.add_row({"source mtime [ns]", std::to_string(i.source.mtime_ns)});
    t.add_row({"fingerprint", to_string(i.fingerprint)});
    t.add_row({"index width",
               i.index_width == IndexWidth::W64 ? "64-bit" : "32-bit"});
    t.add_row({"mu_K (mean nnz/row)", fmt(i.stats.mean_nnz_per_row, 2)});
    t.add_row({"CV_K", fmt(i.stats.cv_nnz_per_row, 3)});
    t.add_row({"working set", fmt_bytes(i.stats.working_set_bytes)});
    t.add_row({"entry size", fmt_bytes(i.file_bytes)});
    t.render(std::cout);
    if (i.index_width == IndexWidth::W64 &&
        width32_representable(i.rows, i.cols, i.nnz))
        std::cout << "note: entry stores 64-bit indices but the matrix is "
                     "32-bit representable; re-warm with --index-width "
                     "auto|32 to shrink it by about a third\n";

    // Freshness against the live source, when it is still reachable.
    const Result<SourceStamp> live = stat_source(i.source_path);
    if (!live.ok()) {
        std::cout << "source: unreachable (" << to_string(live.error().code)
                  << ")\n";
    } else if (live.value().size == i.source.size &&
               live.value().mtime_ns == i.source.mtime_ns) {
        std::cout << "source: unchanged (entry is fresh)\n";
    } else {
        std::cout << "source: modified since the entry was written "
                     "(entry is stale; next load re-parses)\n";
    }
    return 0;
}

int cmd_cache(const CliParser& cli) {
    if (cli.positionals().size() < 2) usage();
    const std::string verb = cli.positionals()[1];
    if (verb == "warm") return cmd_cache_warm(cli);
    if (verb == "inspect") return cmd_cache_inspect(cli);
    report_error(Error(ErrorCode::ValidationError,
                       "unknown cache verb '" + verb +
                           "' (expected warm or inspect)"));
    return kExitUsage;
}

/// One timed kernelbench leg.
struct KernelRow {
    std::string variant;
    double gflops = 0.0;
    double speedup = 0.0;
    EngineInfo info;
};

/// Reads kernelbench's --threads (0 = all hardware threads, default 1),
/// --iters (>= 1) and --prefetch-distance (>= 0, 0 = calibrate). A count
/// above the host's hardware threads is refused before any thread starts.
[[nodiscard]] Status kernel_flags(const CliParser& cli, std::int64_t& threads,
                                  std::int64_t& prefetch_distance) {
    const auto host = static_cast<std::int64_t>(default_host_jobs());
    threads = cli.get_int("threads", 1);
    if (threads < 0 || threads > host)
        return Error(ErrorCode::ValidationError,
                     "--threads must be in [0, " + std::to_string(host) +
                         "] (0 = all hardware threads)");
    if (threads == 0) threads = host;
    if (cli.has("iters") && cli.get_int("iters", 0) < 1)
        return Error(ErrorCode::ValidationError, "--iters must be >= 1");
    prefetch_distance = cli.get_int("prefetch-distance", 0);
    if (prefetch_distance < 0)
        return Error(ErrorCode::ValidationError,
                     "--prefetch-distance must be >= 0");
    return OkStatus();
}

int cmd_kernelbench(const CliParser& cli) {
    std::int64_t threads = 1;
    std::int64_t prefetch_distance = 0;
    if (const Status flags = kernel_flags(cli, threads, prefetch_distance);
        !flags.ok()) {
        report_error(flags.error());
        return kExitUsage;
    }
    const Result<LoadedMatrix> loaded = load_handle(cli, 1);
    if (!loaded.ok()) {
        report_error(loaded.error());
        return 1;
    }
    const AnyCsrView& view = loaded.value().view;
    const std::int64_t iters = cli.get_int(
        "iters", std::max<std::int64_t>(
                     3, (std::int64_t{1} << 26) /
                            std::max<std::int64_t>(view.nnz(), 1)));

    std::vector<KernelVariant> variants;
    const std::string requested = cli.get("variant", "");
    if (!requested.empty() && requested != "all") {
        const Result<KernelVariant> parsed = parse_kernel_variant(requested);
        if (!parsed.ok()) {
            report_error(parsed.error());
            return kExitUsage;
        }
        variants.push_back(parsed.value());
    } else {
        variants = {KernelVariant::CsrScalar,   KernelVariant::CsrPrefetch,
                    KernelVariant::CsrSimd,     KernelVariant::SellScalar,
                    KernelVariant::SellSimd,    KernelVariant::CsrMerge,
                    KernelVariant::Auto};
    }

    std::vector<double> x(static_cast<std::size_t>(view.cols()), 1.0);
    std::vector<double> y(static_cast<std::size_t>(view.rows()), 0.0);
    const double flops = 2.0 * static_cast<double>(view.nnz()) *
                         static_cast<double>(iters);

    // Baseline: the per-call spmv_csr_parallel entry point, at the loaded
    // matrix's physical width.
    const RowPartition partition(view, threads,
                                 PartitionPolicy::BalancedNonzeros);
    const auto run_baseline = [&] {
        view.visit([&](const auto& v) {
            spmv_csr_parallel(v, std::span<const double>(x),
                              std::span<double>(y), partition);
        });
    };
    run_baseline();  // warm-up
    Timer base_timer;
    for (std::int64_t i = 0; i < iters; ++i) run_baseline();
    const double base_seconds = base_timer.seconds();
    const double base_gflops =
        base_seconds > 0 ? flops / base_seconds / 1e9 : 0.0;

    std::vector<KernelRow> rows;
    for (const KernelVariant v : variants) {
        EngineOptions options;
        options.threads = threads;
        options.variant = v;
        options.prefetch_distance = prefetch_distance;
        AnyKernelEngine engine(view, options);
        engine.run_iterations(x, y, 1);  // warm-up
        Timer timer;
        engine.run_iterations(x, y, iters);
        const double seconds = timer.seconds();
        KernelRow row;
        row.variant = to_string(v);
        row.info = engine.info();
        row.gflops = seconds > 0 ? flops / seconds / 1e9 : 0.0;
        row.speedup = base_gflops > 0 ? row.gflops / base_gflops : 0.0;
        rows.push_back(std::move(row));
    }

    TextTable t({"variant", "resolved", "GFLOP/s", "vs baseline", "isa",
                 "prefetch d"});
    t.add_row({"spmv_csr_parallel", "-", fmt(base_gflops, 2), "1.00", "-",
               "-"});
    for (const auto& row : rows)
        t.add_row({row.variant, to_string(row.info.variant),
                   fmt(row.gflops, 2), fmt(row.speedup, 2),
                   simd::to_string(row.info.isa),
                   row.info.variant == KernelVariant::CsrPrefetch
                       ? std::to_string(row.info.prefetch_distance)
                       : "-"});
    t.render(std::cout, std::to_string(threads) + " thread(s), " +
                            std::to_string(iters) + " iterations, host " +
                            simd::to_string(simd::best().isa) + ":");

    const std::string report_path = cli.get("report", "");
    if (!report_path.empty()) {
        std::ofstream out(report_path);
        if (!out) {
            report_error(Error(ErrorCode::ResourceError,
                               "cannot write report '" + report_path + "'"));
            return kExitUsage;
        }
        const std::string format = to_lower(cli.get(
            "format", report_path.size() > 5 &&
                              report_path.substr(report_path.size() - 5) ==
                                  ".json"
                          ? "json"
                          : "csv"));
        if (format == "json") {
            out << "{\"threads\": " << threads << ", \"iters\": " << iters
                << ", \"baseline_gflops\": " << base_gflops
                << ", \"host_simd\": \"" << simd::to_string(simd::best().isa)
                << "\",\n \"variants\": [\n";
            for (std::size_t i = 0; i < rows.size(); ++i)
                out << "  {\"variant\": \"" << rows[i].variant
                    << "\", \"resolved\": \""
                    << to_string(rows[i].info.variant)
                    << "\", \"gflops\": " << rows[i].gflops
                    << ", \"speedup\": " << rows[i].speedup
                    << ", \"isa\": \"" << simd::to_string(rows[i].info.isa)
                    << "\", \"prefetch_distance\": "
                    << rows[i].info.prefetch_distance << "}"
                    << (i + 1 < rows.size() ? "," : "") << "\n";
            out << " ]}\n";
        } else {
            out << "variant,resolved,gflops,speedup,isa,prefetch_distance\n";
            for (const auto& row : rows)
                out << row.variant << ',' << to_string(row.info.variant)
                    << ',' << row.gflops << ',' << row.speedup << ','
                    << simd::to_string(row.info.isa) << ','
                    << row.info.prefetch_distance << "\n";
        }
        std::cout << "report written to " << report_path << " (" << format
                  << ")\n";
    }
    return 0;
}

/// One subcommand: its handler and every flag it reads.
struct Command {
    std::string_view name;
    int (*run)(const CliParser&);
    std::vector<std::string_view> flags;
};

/// `base` followed by `more`.
std::vector<std::string_view> with(std::vector<std::string_view> base,
                                   const std::vector<std::string_view>& more) {
    base.insert(base.end(), more.begin(), more.end());
    return base;
}

const std::vector<Command>& commands() {
    static const std::vector<Command> table = [] {
        // Read by ingest_flags, and by matrix_source for one matrix.
        const std::vector<std::string_view> ingest = {
            "strict", "cache-dir", "parse-jobs", "index-width"};
        const std::vector<std::string_view> load =
            with(ingest, {"gen", "seed"});
        // Read by model_flags.
        const std::vector<std::string_view> model = {"threads", "jobs",
                                                     "timeout", "approx"};
        return std::vector<Command>{
            {"stats", cmd_stats, load},
            {"classify", cmd_classify, with(load, {"ways"})},
            {"predict", cmd_predict,
             with(with(load, {"method", "json"}), model)},
            {"simulate", cmd_simulate,
             with(load, {"threads", "jobs", "l2-ways", "l1-ways"})},
            {"tune", cmd_tune, with(load, model)},
            {"convert", cmd_convert, with(load, {"rcm"})},
            {"batch", cmd_batch,
             with(with(ingest, {"no-model", "no-retry", "report", "format"}),
                  model)},
            {"serve", cmd_serve,
             {"workers", "queue", "cache-bytes", "strikes", "timeout",
              "retries", "max-request-bytes", "source-cache", "cache-dir",
              "parse-jobs"}},
            {"cache", cmd_cache, ingest},
            {"kernelbench", cmd_kernelbench,
             with(load, {"threads", "iters", "prefetch-distance", "variant",
                         "report", "format"})},
        };
    }();
    return table;
}

}  // namespace

int main(int argc, char** argv) {
    const CliParser cli(argc, argv);
    if (cli.positionals().empty()) usage();
    const std::string command = cli.positionals().front();
    const auto& table = commands();
    const auto it =
        std::find_if(table.begin(), table.end(),
                     [&](const Command& c) { return c.name == command; });
    if (it == table.end()) usage();
    // A misspelt or retired flag would otherwise be silently ignored.
    if (const Status flags = cli.expect_only(it->flags, command);
        !flags.ok()) {
        report_error(flags.error());
        return kExitUsage;
    }
    try {
        return it->run(cli);
    } catch (const std::exception& e) {
        // Input errors are handled through the Status layer above; anything
        // landing here is a programmer error or resource exhaustion.
        std::cerr << "fatal: " << e.what() << "\n";
        return kExitUsage;
    }
}
