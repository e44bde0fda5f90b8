// Batch runner: the model pipeline over a directory or list of matrices
// with per-matrix isolation, so one malformed download cannot abort a
// 490-matrix SuiteSparse-scale sweep (§5 of the paper).
//
// Each matrix runs through parse -> validate -> stats -> model. A failure
// in any stage is captured as a typed Error (never an escaping exception),
// recorded with its stage, and the batch moves on. Transient failures
// (ResourceError, injected faults) are retried once; an optional
// per-matrix wall-clock timeout turns runaway inputs into TimeoutError.
// The report serialises to CSV or JSON for machine consumption.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "model/options.hpp"
#include "sparse/index_width.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Pipeline stage a matrix was in when it succeeded or failed.
enum class BatchStage : std::uint8_t {
    Parse,     ///< reading the .mtx file
    Validate,  ///< CSR invariant check
    Stats,     ///< matrix statistics (mu_K, CV_K, working set)
    Model,     ///< method (A) miss prediction
};

[[nodiscard]] const char* to_string(BatchStage stage) noexcept;

/// Knobs for one batch sweep.
struct BatchOptions {
    /// Parse in strict mode (reject duplicates, trailing garbage, ...).
    bool strict_parse = false;
    /// Skip the model stage (parse/validate/stats only) for fast triage.
    bool run_model = true;
    std::int64_t threads = 48;
    /// Host workers for the model's sharded stack passes (ModelOptions::
    /// jobs): 0 = hardware concurrency, 1 = serial.
    std::int64_t jobs = 0;
    /// Per-matrix wall-clock budget in seconds; <= 0 disables the timeout.
    /// A timed-out matrix is recorded as TimeoutError and abandoned (its
    /// worker thread is detached — see DESIGN.md).
    double timeout_seconds = 0.0;
    /// Retry a failed matrix once when the failure looks transient
    /// (ResourceError or an injected fault).
    bool retry_transient = true;
    /// Polled between matrices (and before a retry); when it returns true
    /// the sweep drains gracefully — matrices not yet started are recorded
    /// as Cancelled so the CSV/JSON report still accounts for every input.
    /// The CLI wires this to the SIGINT/SIGTERM drain flag (util/signal).
    std::function<bool()> cancel_check;
    /// Directory for `.spmvc` binary cache entries (core/matrix_source):
    /// a warm cache turns the parse stage into an mmap; empty disables it.
    std::string cache_dir;
    /// Parser workers on a cache miss (1 serial, 0 all cores, N > 1 = N).
    std::int64_t parse_jobs = 1;
    /// SHARDS sampling rate for the model stage (ModelOptions::
    /// sample_rate): 1 = exact, R < 1 = approximate predictions at ~R of
    /// the stack-pass cost. CLI: --approx[=R].
    double sample_rate = 1.0;
    /// Physical index width for every load (core/matrix_source.hpp):
    /// Auto narrows when representable. CLI: --index-width; default =
    /// the build-configured choice.
    IndexWidthChoice index_width = default_index_width_choice();
};

/// Outcome of one matrix.
struct BatchItemResult {
    std::string name;  ///< file stem, e.g. "bcsstk17"
    std::string path;
    bool ok = false;
    BatchStage stage = BatchStage::Parse;  ///< last stage entered
    ErrorCode code = ErrorCode::Ok;
    std::string message;  ///< rendered error; empty on success
    bool retried = false;
    double seconds = 0.0;
    /// How the matrix was ingested ("parsed" / "cache-hit"); see
    /// LoadOrigin in core/matrix_source.hpp.
    std::string load_origin = "parsed";
    /// True when this run wrote (or refreshed) the .spmvc cache entry.
    bool cache_written = false;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t nnz = 0;
    /// Best predicted configuration (model stage only), over the
    /// default ModelOptions way list.
    std::uint32_t best_l2_ways = 0;
    double best_l2_misses = 0.0;
    /// Model-stage instrumentation (zero when the model stage was skipped
    /// or not reached): wall-clock, shard count = active L2 segments, host
    /// workers used, and demand references replayed per iteration.
    double model_seconds = 0.0;
    std::int64_t model_shards = 0;
    std::int64_t model_jobs = 0;
    std::uint64_t model_references = 0;
    /// True when the model ran as a SHARDS estimate (sample_rate < 1 and
    /// not degraded to exact by an armed `reuse.sample` fault).
    bool model_sampled = false;
    /// Rate the model stage actually used (1.0 when exact or degraded).
    double model_sample_rate = 1.0;
    /// References that survived the sampling filter and reached the
    /// engines (== model_references when exact).
    std::uint64_t model_sampled_refs = 0;
};

/// Standardised CLI exit codes (also used by `spmvcache batch`).
inline constexpr int kExitOk = 0;
inline constexpr int kExitSomeFailed = 1;
inline constexpr int kExitUsage = 2;

/// Exit code for an exception that escaped a subcommand. A flag value the
/// CLI parser could not read (a StatusError carrying ParseError) is a
/// usage error, kExitUsage; a broken contract, exhaustion or any other
/// escape is an internal failure, kExitSomeFailed, so it never reads as
/// a refused flag.
[[nodiscard]] int exit_code_for_exception(const std::exception& e) noexcept;

/// Everything a sweep produced, failures included.
struct BatchReport {
    std::vector<BatchItemResult> items;

    [[nodiscard]] std::size_t succeeded() const noexcept;
    [[nodiscard]] std::size_t failed() const noexcept;
    /// kExitOk when every matrix modelled, kExitSomeFailed otherwise.
    [[nodiscard]] int exit_code() const noexcept;
};

/// Expands `spec` into matrix paths: a directory yields its *.mtx files
/// (sorted), a .mtx path yields itself, and any other file is read as a
/// list (one path per line, '#' comments and blanks skipped).
[[nodiscard]] Result<std::vector<std::string>> collect_matrix_paths(
    const std::string& spec);

/// Runs the pipeline over `paths` with per-matrix isolation. Never throws
/// for bad input; programmer errors (contract violations) surface as
/// InternalError items.
[[nodiscard]] BatchReport run_batch(const std::vector<std::string>& paths,
                                    const BatchOptions& options = {});

/// Machine-readable failure reports.
void write_batch_report_csv(std::ostream& out, const BatchReport& report);
void write_batch_report_json(std::ostream& out, const BatchReport& report);

}  // namespace spmvcache
