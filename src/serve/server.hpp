// `spmvcache serve` — the fault-tolerant prediction daemon.
//
// A Server owns a ThreadPool, a fingerprint-keyed PlanCache, and a
// Quarantine, and pumps a JSONL request loop (protocol.hpp) from an
// istream to an ostream. The robustness contract, in one place:
//
//   * bounded admission — at most `queue_capacity` matrix requests are
//     queued or executing; beyond that a request is rejected immediately
//     with a typed OverloadedError (backpressure, never unbounded memory)
//   * per-request deadlines — every request runs under the shared
//     wall-clock mechanism (core/deadline.hpp); expiry abandons the work
//     on a detached thread and answers TimeoutError
//   * retry with exponential backoff — transient failures (ResourceError,
//     injected faults) are retried up to `max_retries` times
//   * quarantine — a source / fingerprint that keeps failing fast-fails
//     with its cached error after `quarantine_strikes` strikes
//   * graceful drain — EOF, `shutdown`, SIGINT or SIGTERM all stop
//     admission, finish in-flight requests, and flush a final stats
//     report; the daemon never dies mid-response
//   * health is always answerable — `health` runs on the loop thread,
//     not the bounded queue, so a saturated daemon still reports
//   * no repeated ingestion — loaded matrices are memoized in a
//     SourceCache (stat-revalidated), so repeat requests for the same
//     source skip file I/O and re-fingerprinting entirely; with a
//     cache_dir the first load itself goes through the .spmvc mmap path
//
// Fault points (util/fault.hpp): serve.accept fires at admission,
// serve.execute inside the worker (transient → exercises the retry path),
// serve.cache on plan-cache insertion (failure degrades to recompute).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "sync/thread_pool.hpp"
#include "util/annotated_mutex.hpp"
#include "util/timer.hpp"

namespace spmvcache {

/// Daemon knobs (all have serving-scale defaults; the CLI maps flags 1:1).
struct ServeOptions {
    /// Pool workers executing matrix requests (>= 1).
    std::int64_t workers = 2;
    /// Max matrix requests queued or executing before OverloadedError.
    std::size_t queue_capacity = 64;
    /// Plan-cache hard cap in payload bytes (0 disables caching).
    std::uint64_t cache_capacity_bytes = std::uint64_t{64} << 20;
    /// Strikes before a failing source/fingerprint fast-fails.
    int quarantine_strikes = 3;
    /// Default per-request wall-clock budget (seconds; <= 0 = none);
    /// individual requests override via their "timeout" field.
    double default_timeout_seconds = 0.0;
    /// Transient-failure retries per request (0 disables retry).
    int max_retries = 2;
    /// First backoff sleep; doubles per retry (capped at 1 s).
    double backoff_initial_seconds = 0.01;
    /// Reject request lines longer than this many bytes.
    std::size_t max_request_bytes = std::size_t{1} << 20;
    /// Test/bench hook: artificial seconds of work per execution, so
    /// backpressure and drain are observable deterministically.
    double execute_delay_seconds = 0.0;
    /// Directory for `.spmvc` binary cache entries (core/matrix_source);
    /// empty disables the on-disk cache (loads still dedupe in memory).
    std::string cache_dir;
    /// Parser workers on a cache miss (1 serial, 0 all cores, N > 1 = N).
    std::int64_t parse_jobs = 1;
    /// Loaded matrices kept resident in the in-memory source cache.
    std::size_t source_cache_entries = 8;
};

/// Aggregate daemon counters (snapshot; also embedded in `health`).
struct ServeStats {
    std::uint64_t requests = 0;        ///< lines that reached dispatch
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;          ///< typed-error responses
    std::uint64_t parse_errors = 0;    ///< malformed/oversized lines
    std::uint64_t rejected_overload = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;         ///< attempts beyond the first
    std::uint64_t cache_hits = 0;
    /// Requests that asked for SHARDS-sampled (approximate) predictions.
    std::uint64_t approx_requests = 0;
    /// In-memory source-cache counters: a hit means the request touched
    /// neither the .mtx text nor the .spmvc file.
    std::uint64_t source_hits = 0;
    std::uint64_t source_loads = 0;
    std::uint64_t source_entries = 0;
    PlanCacheStats cache{};
    QuarantineStats quarantine{};
    double uptime_seconds = 0.0;
};

/// One long-running daemon instance. run() is the blocking loop; tests and
/// the bench drive handle_line() directly for synchronous semantics.
class Server {
public:
    explicit Server(ServeOptions options = {});

    /// Pumps requests from `in`, writes one response line per request to
    /// `out`, logs lifecycle to `log`. Returns kExitOk after a clean drain
    /// (EOF, shutdown request, or drain signal). Blocks until drained.
    int run(std::istream& in, std::ostream& out, std::ostream& log);

    /// Parses and executes one request synchronously on the calling
    /// thread (admission control and quarantine still apply); returns the
    /// rendered response line. Never throws.
    [[nodiscard]] std::string handle_line(const std::string& line)
        SPMV_EXCLUDES(stats_mutex_);

    /// One mutually consistent snapshot: the daemon counters are read
    /// under a single stats_mutex_ acquisition, and each subsystem
    /// (plan cache, quarantine, source cache) contributes its own
    /// single-lock snapshot, so invariants like requests == ok + failed
    /// and cache.entries == insertions - evictions hold in the result
    /// even while requests are in flight.
    [[nodiscard]] ServeStats stats() const SPMV_EXCLUDES(stats_mutex_);

    /// Serialized stats snapshot (the final report and `health` payload).
    [[nodiscard]] std::string render_stats_json() const;

private:
    struct ExecOutcome {
        std::string payload;
        bool cache_hit = false;
    };

    /// Dispatch after parse: matrix ops, health, shutdown.
    [[nodiscard]] ServeResponse dispatch(const ServeRequest& request);
    /// The full matrix-op path: quarantine, deadline, retries, cache.
    [[nodiscard]] ServeResponse execute_matrix_op(const ServeRequest& request);
    /// One deadline-guarded attempt (load + fingerprint + model + cache).
    /// Static, and handed shared_ptrs instead of `this`: an expired
    /// deadline abandons the attempt on a detached thread, which must not
    /// touch the Server object but may still finish against the cache.
    [[nodiscard]] static Result<ExecOutcome> attempt(
        const ServeRequest& request, const ServeOptions& options,
        const std::shared_ptr<PlanCache>& cache,
        const std::shared_ptr<Quarantine>& quarantine,
        const std::shared_ptr<SourceCache>& sources,
        const std::shared_ptr<std::atomic<std::uint64_t>>& fp_key_slot);
    /// Claims an admission slot; an Error (OverloadedError or an armed
    /// serve.accept fault) means the request was rejected.
    [[nodiscard]] std::optional<Error> admit();
    /// Releases the slot claimed by a successful admit().
    void finish_one();
    [[nodiscard]] std::string render_health_payload() const
        SPMV_EXCLUDES(stats_mutex_);
    void count_response(const ServeResponse& response)
        SPMV_EXCLUDES(stats_mutex_);
    /// The refusal of a line that was never parsed into a request: it
    /// echoes the line's own id when it has one, else `fallback_id`, and
    /// counts a parse error.
    [[nodiscard]] ServeResponse refuse_line(const std::string& line,
                                            std::string fallback_id,
                                            const Error& error)
        SPMV_EXCLUDES(stats_mutex_);

    ServeOptions options_;
    std::shared_ptr<PlanCache> cache_;
    std::shared_ptr<Quarantine> quarantine_;
    /// Loaded-matrix memo: repeat requests for the same source reuse the
    /// resident CsrView/fingerprint/stats instead of re-reading the file.
    std::shared_ptr<SourceCache> sources_;
    Timer uptime_;
    std::atomic<std::size_t> in_flight_{0};
    std::atomic<std::uint64_t> next_request_number_{1};

    mutable Mutex stats_mutex_;
    ServeStats counters_ SPMV_GUARDED_BY(stats_mutex_);
    // Declared last so the pool joins (and its tasks stop touching the
    // members above) before anything else is destroyed.
    ThreadPool pool_;
};

}  // namespace spmvcache
