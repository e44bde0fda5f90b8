#include "serve/server.hpp"

#include <bit>
#include <chrono>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "core/batch.hpp"
#include "core/deadline.hpp"
#include "core/model_runner.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"
#include "util/signal.hpp"

namespace spmvcache {

namespace {

/// The sleep before a request's first retry; it doubles per retry, up to
/// 1 s.
constexpr double kFirstBackoffSeconds = 0.01;

/// Worker count with the same 0-means-host convention as ModelOptions.
std::size_t resolve_workers(std::int64_t workers) {
    if (workers <= 0) return default_host_jobs();
    return static_cast<std::size_t>(workers);
}

/// FNV-1a over the canonical source string, then finalized — the
/// quarantine key that exists before a matrix can be parsed.
std::uint64_t source_quarantine_key(const MatrixSource& source) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : source.canonical_key()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return mix64(h);
}

/// Fingerprint-level quarantine key: matrix identity, options excluded (a
/// poisoned matrix fails for every option set).
std::uint64_t fingerprint_quarantine_key(const MatrixFingerprint& fp) {
    return fp.hash_hi ^ mix64(fp.hash_lo);
}

/// The exact ModelOptions the one-shot CLI would use for this request —
/// served predictions must be bit-identical to `spmvcache predict`/`tune`,
/// so both start from the same per-op defaults (model/options.hpp).
ModelOptions model_options_for(const ServeRequest& request) {
    ModelOptions options =
        request.op == RequestOp::Tune ? tune_options() : ModelOptions{};
    options.threads = request.threads;
    options.jobs = request.jobs;
    if (!request.l2_ways.empty()) options.l2_way_options = request.l2_ways;
    options.sample_rate = request.sample_rate;
    return options;
}

/// Plan-cache key: fingerprint mix xor'd with a digest of everything that
/// changes the payload (op, threads, method, way list, sampling rate).
/// `jobs` and the trace buffer are deliberately excluded — predictions are
/// bit-identical across them, so requests differing only there share a
/// plan. The sampling rate is included for the opposite reason: an exact
/// plan and a SHARDS estimate for the same matrix must never alias, and
/// two different rates produce different estimates.
PlanKey plan_key_for(const MatrixFingerprint& fp,
                     const ServeRequest& request,
                     const ModelOptions& options, IndexWidth width) {
    std::uint64_t digest =
        mix64(static_cast<std::uint64_t>(request.op) + 1);
    // The physical index width changes the modelled traffic (4- vs 8-byte
    // colidx/rowptr), so a narrow and a wide load of the same matrix must
    // never share a plan.
    digest = mix64(digest ^ (width == IndexWidth::W64 ? 64u : 32u));
    digest = mix64(digest ^ static_cast<std::uint64_t>(request.threads));
    if (request.op == RequestOp::Predict)
        digest = mix64(digest ^ (request.method == "b" ? 2u : 1u));
    if (request.op != RequestOp::Stats) {
        for (const std::uint32_t way : options.l2_way_options)
            digest = mix64(digest ^ (0x10000u + way));
        digest = mix64(
            digest ^ std::bit_cast<std::uint64_t>(options.sample_rate));
    }
    return PlanKey{fp.hash_hi ^ digest, fp.hash_lo ^ mix64(digest)};
}

/// The string "id" of a line that is a JSON object, "" when it has none,
/// so a line parse_request rejects can still be answered under its id.
std::string request_id_of(const std::string& line) {
    const Result<Json> parsed = parse_json(line);
    if (!parsed.ok()) return "";
    const Json* id = parsed.value().find("id");
    return id != nullptr && id->kind == Json::Kind::String ? id->text : "";
}

ServeResponse error_response(std::string id, const char* op,
                             const Error& error) {
    ServeResponse response;
    response.id = std::move(id);
    response.op = op;
    response.ok = false;
    response.code = error.code;
    response.error = error.render();
    return response;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(options),
      cache_(std::make_shared<PlanCache>(options.cache_capacity_bytes)),
      quarantine_(std::make_shared<Quarantine>(
          options.quarantine_strikes >= 1 ? options.quarantine_strikes : 1)),
      sources_(std::make_shared<SourceCache>(
          options.source_cache_entries >= 1 ? options.source_cache_entries
                                            : 1)),
      pool_(resolve_workers(options.workers)) {}

[[nodiscard]] Result<Server::ExecOutcome> Server::attempt(
    const ServeRequest& request, const ServeOptions& options,
    const std::shared_ptr<PlanCache>& cache,
    const std::shared_ptr<Quarantine>& quarantine,
    const std::shared_ptr<SourceCache>& sources,
    const std::shared_ptr<std::atomic<std::uint64_t>>& fp_key_slot) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("serve.execute"));
    if (options.execute_delay_seconds > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(
            options.execute_delay_seconds));

    // Daemon-level ingestion knobs ride on the request's source; the
    // canonical_key ignores them, so memoization is unaffected.
    MatrixSource source = request.source;
    source.cache_dir = options.cache_dir;
    source.parse_jobs = options.parse_jobs;
    Result<LoadedMatrix> handle = sources->get(source);
    if (!handle.ok())
        return std::move(handle)
            .wrap("loading '" + request.source.canonical_key() + "'")
            .to_error();
    const LoadedMatrix loaded = std::move(handle).value();
    const MatrixFingerprint& fp = loaded.fingerprint;
    const std::uint64_t fp_key = fingerprint_quarantine_key(fp);
    fp_key_slot->store(fp_key, std::memory_order_relaxed);
    if (std::optional<Error> banned = quarantine->check(fp_key);
        banned.has_value())
        return *std::move(banned);

    const ModelOptions model = model_options_for(request);
    const PlanKey key =
        plan_key_for(fp, request, model, loaded.stats.index_width);
    if (std::optional<std::string> hit = cache->get(key); hit.has_value()) {
        ExecOutcome outcome;
        outcome.payload = *std::move(hit);
        outcome.cache_hit = true;
        return outcome;
    }

    ExecOutcome outcome;
    if (request.op == RequestOp::Stats) {
        // Stats were computed once at load (or read from the .spmvc
        // header) and memoized with the matrix.
        outcome.payload = render_stats_payload(loaded.stats, fp);
    } else {
        Result<ModelMethod> method = parse_model_method(
            request.op == RequestOp::Tune ? "a" : request.method);
        if (!method.ok()) return std::move(method).to_error();
        // The per-request deadline wraps this whole attempt already; the
        // model runs without a second nested budget.
        Result<ModelResult> result =
            run_model(loaded, model, method.value());
        if (!result.ok())
            return std::move(result).wrap("running the model").to_error();
        outcome.payload =
            request.op == RequestOp::Tune
                ? render_tune_payload(result.value(), fp, request.threads)
                : render_predict_payload(result.value(), fp,
                                         request.method, request.threads);
    }
    // A failing cache degrades to recompute-every-time, never to an error.
    if (!fault::should_fail("serve.cache"))
        cache->put(key, outcome.payload);
    return outcome;
}

ServeResponse Server::execute_matrix_op(const ServeRequest& request) {
    ServeResponse response;
    response.id = request.id;
    response.op = to_string(request.op);
    response.sample_rate = request.sample_rate;
    const Timer timer;

    const std::uint64_t source_key = source_quarantine_key(request.source);
    if (std::optional<Error> banned = quarantine_->check(source_key);
        banned.has_value()) {
        response = error_response(request.id, to_string(request.op),
                                  *banned);
        response.seconds = timer.seconds();
        return response;
    }

    const double timeout = request.timeout_seconds >= 0.0
                               ? request.timeout_seconds
                               : options_.default_timeout_seconds;
    const auto fp_key_slot =
        std::make_shared<std::atomic<std::uint64_t>>(0);

    // Retry transient failures with exponential backoff; the attempt
    // lambda owns everything it touches (shared_ptr members, request by
    // value) because an expired deadline abandons it on a detached thread.
    Result<ExecOutcome> outcome = Error(ErrorCode::InternalError, "unrun");
    int attempts = 0;
    double backoff = kFirstBackoffSeconds;
    while (true) {
        ++attempts;
        const ServeRequest attempt_request = request;
        const ServeOptions attempt_options = options_;
        const std::shared_ptr<PlanCache> cache = cache_;
        const std::shared_ptr<Quarantine> quarantine = quarantine_;
        const std::shared_ptr<SourceCache> sources = sources_;
        outcome = run_with_deadline<ExecOutcome>(
            timeout,
            [attempt_request, attempt_options, cache, quarantine, sources,
             fp_key_slot] {
                return attempt(attempt_request, attempt_options, cache,
                               quarantine, sources, fp_key_slot);
            });
        if (outcome.ok() || attempts > options_.max_retries ||
            !is_transient(outcome.code()))
            break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(backoff < 1.0 ? backoff : 1.0));
        backoff *= 2.0;
    }
    response.retries = attempts - 1;

    const std::uint64_t fp_key =
        fp_key_slot->load(std::memory_order_relaxed);
    if (outcome.ok()) {
        quarantine_->record_success(source_key);
        if (fp_key != 0) quarantine_->record_success(fp_key);
        response.ok = true;
        response.code = ErrorCode::Ok;
        response.cache_hit = outcome.value().cache_hit;
        response.payload = std::move(outcome).value().payload;
    } else {
        const Error& error = outcome.error();
        response.ok = false;
        response.code = error.code;
        response.error = error.render();
        // Overload/cancellation are the server's state, not the matrix's;
        // everything else (timeouts included) earns the key a strike.
        if (error.code != ErrorCode::OverloadedError &&
            error.code != ErrorCode::Cancelled) {
            quarantine_->record_failure(source_key, error);
            if (fp_key != 0) quarantine_->record_failure(fp_key, error);
        }
    }
    response.seconds = timer.seconds();
    return response;
}

ServeResponse Server::dispatch(const ServeRequest& request) {
    switch (request.op) {
        case RequestOp::Health:
        case RequestOp::Shutdown: {
            // Shutdown acknowledgements reuse the health payload so the
            // last line a client sees carries the final counters.
            ServeResponse response;
            response.id = request.id;
            response.op = to_string(request.op);
            response.ok = true;
            response.code = ErrorCode::Ok;
            response.payload = render_health_payload();
            return response;
        }
        case RequestOp::Predict:
        case RequestOp::Tune:
        case RequestOp::Stats: return execute_matrix_op(request);
    }
    return error_response(request.id, "unknown",
                          Error(ErrorCode::InternalError,
                                "unhandled request op"));
}

std::optional<Error> Server::admit() {
    if (Status s = fault::maybe_fail("serve.accept"); !s.ok())
        return std::move(s).to_error();
    // Reserve a slot atomically; concurrent admitters (run loop +
    // handle_line callers) may race, so claim first and roll back.
    const std::size_t claimed =
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
    if (claimed >= options_.queue_capacity) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return Error(ErrorCode::OverloadedError,
                     "admission queue full (" +
                         std::to_string(options_.queue_capacity) +
                         " requests queued or executing); retry later");
    }
    return std::nullopt;
}

void Server::finish_one() {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::count_response(const ServeResponse& response) {
    const MutexLock lock(stats_mutex_);
    ++counters_.requests;
    if (response.ok) ++counters_.ok;
    else ++counters_.failed;
    if (response.code == ErrorCode::OverloadedError)
        ++counters_.rejected_overload;
    if (response.code == ErrorCode::TimeoutError) ++counters_.timeouts;
    counters_.retries += static_cast<std::uint64_t>(response.retries);
    if (response.cache_hit) ++counters_.cache_hits;
    if (response.sample_rate < 1.0) ++counters_.approx_requests;
}

ServeStats Server::stats() const {
    ServeStats out;
    {
        const MutexLock lock(stats_mutex_);
        out = counters_;
    }
    out.cache = cache_->stats();
    out.quarantine = quarantine_->stats();
    // One lock acquisition per subsystem: the three source counters come
    // from a single snapshot, so hits/loads/entries are consistent with
    // each other even while requests are loading matrices concurrently.
    const SourceCache::Stats sources = sources_->stats();
    out.source_hits = sources.hits;
    out.source_loads = sources.loads;
    out.source_entries = sources.entries;
    out.uptime_seconds = uptime_.seconds();
    return out;
}

std::string Server::render_stats_json() const {
    const ServeStats s = stats();
    std::string out = "{";
    out += "\"requests\":" + std::to_string(s.requests);
    out += ",\"ok\":" + std::to_string(s.ok);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"parse_errors\":" + std::to_string(s.parse_errors);
    out += ",\"rejected_overload\":" +
           std::to_string(s.rejected_overload);
    out += ",\"timeouts\":" + std::to_string(s.timeouts);
    out += ",\"retries\":" + std::to_string(s.retries);
    out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
    out += ",\"approx_requests\":" + std::to_string(s.approx_requests);
    out += ",\"sources\":{\"hits\":" + std::to_string(s.source_hits);
    out += ",\"loads\":" + std::to_string(s.source_loads);
    out += ",\"entries\":" + std::to_string(s.source_entries) + "}";
    out += ",\"cache\":{\"hits\":" + std::to_string(s.cache.hits);
    out += ",\"misses\":" + std::to_string(s.cache.misses);
    out += ",\"insertions\":" + std::to_string(s.cache.insertions);
    out += ",\"evictions\":" + std::to_string(s.cache.evictions);
    out += ",\"entries\":" + std::to_string(s.cache.entries);
    out += ",\"bytes\":" + std::to_string(s.cache.bytes);
    out += ",\"capacity_bytes\":" +
           std::to_string(s.cache.capacity_bytes) + "}";
    out += ",\"quarantine\":{\"strikes\":" +
           std::to_string(s.quarantine.strikes);
    out += ",\"tracked\":" + std::to_string(s.quarantine.tracked);
    out += ",\"quarantined\":" + std::to_string(s.quarantine.quarantined);
    out += ",\"fast_failed\":" +
           std::to_string(s.quarantine.fast_failed) + "}";
    out += ",\"uptime_seconds\":" + json_double(s.uptime_seconds);
    out += "}";
    return out;
}

std::string Server::render_health_payload() const {
    std::string out = "{\"status\":\"ok\"";
    out += ",\"in_flight\":" +
           std::to_string(in_flight_.load(std::memory_order_acquire));
    out += ",\"queue_capacity\":" +
           std::to_string(options_.queue_capacity);
    out += ",\"workers\":" + std::to_string(pool_.worker_count());
    out += ",\"stats\":" + render_stats_json();
    out += "}";
    return out;
}

ServeResponse Server::refuse_line(const std::string& line,
                                  std::string fallback_id,
                                  const Error& error) {
    std::string id = request_id_of(line);
    ServeResponse response =
        error_response(id.empty() ? std::move(fallback_id) : std::move(id),
                       "", error);
    // Malformed lines carry whatever code the parser assigned
    // (ParseError or ValidationError) but always count here.
    const MutexLock lock(stats_mutex_);
    ++counters_.parse_errors;
    return response;
}

std::string Server::handle_line(const std::string& line) {
    const std::string fallback_id =
        "req-" + std::to_string(next_request_number_.fetch_add(
                     1, std::memory_order_relaxed));
    const std::string trimmed = trim(line);
    ServeResponse response;
    Result<ServeRequest> parsed = parse_request(trimmed);
    if (!parsed.ok()) {
        response = refuse_line(trimmed, fallback_id, parsed.error());
    } else {
        ServeRequest request = std::move(parsed).value();
        if (request.id.empty()) request.id = fallback_id;
        if (request.op == RequestOp::Predict ||
            request.op == RequestOp::Tune ||
            request.op == RequestOp::Stats) {
            if (std::optional<Error> rejected = admit();
                rejected.has_value()) {
                response = error_response(
                    request.id, to_string(request.op), *rejected);
            } else {
                response = dispatch(request);
                finish_one();
            }
        } else {
            response = dispatch(request);
        }
    }
    count_response(response);
    return render_response(response);
}

int Server::run(std::istream& in, std::ostream& out, std::ostream& log) {
    Mutex out_mutex;
    const auto respond = [&out, &out_mutex, this](
                             const ServeResponse& response) {
        const std::string line = render_response(response);
        {
            const MutexLock lock(out_mutex);
            out << line << '\n';
            out.flush();
        }
        count_response(response);
    };

    log << "spmvcache serve: " << pool_.worker_count()
        << " worker(s), queue capacity " << options_.queue_capacity
        << ", cache cap " << options_.cache_capacity_bytes
        << " B, quarantine after " << options_.quarantine_strikes
        << " strikes\n";
    log.flush();

    const char* drain_reason = "eof";
    bool acknowledge_shutdown = false;
    std::string shutdown_id;
    std::string line;
    while (true) {
        if (drain::requested()) {
            drain_reason = "signal";
            break;
        }
        Result<bool> got =
            read_line_bounded(in, line, options_.max_request_bytes);
        const std::string fallback_id =
            "req-" + std::to_string(next_request_number_.fetch_add(
                         1, std::memory_order_relaxed));
        if (!got.ok()) {
            // Oversized line: answered like any bad request, without an
            // id (the line was never read whole); the stream is already
            // resynchronized to the next line.
            respond(refuse_line("", fallback_id, got.error()));
            continue;
        }
        if (!got.value()) {
            drain_reason = drain::requested() ? "signal" : "eof";
            break;
        }
        const std::string trimmed = trim(line);
        if (trimmed.empty()) continue;

        Result<ServeRequest> parsed = parse_request(trimmed);
        if (!parsed.ok()) {
            respond(refuse_line(trimmed, fallback_id, parsed.error()));
            continue;
        }
        ServeRequest request = std::move(parsed).value();
        if (request.id.empty()) request.id = fallback_id;

        if (request.op == RequestOp::Shutdown) {
            acknowledge_shutdown = true;
            shutdown_id = request.id;
            drain_reason = "shutdown";
            break;
        }
        if (request.op == RequestOp::Health) {
            // Health never queues: a saturated daemon must still answer.
            respond(dispatch(request));
            continue;
        }
        if (std::optional<Error> rejected = admit(); rejected.has_value()) {
            respond(error_response(request.id, to_string(request.op),
                                   *rejected));
            continue;
        }
        pool_.submit([this, request, respond] {
            // ThreadPool tasks must never throw; dispatch() already maps
            // everything to typed errors, this is the last-resort belt.
            try {
                respond(dispatch(request));
            } catch (const std::exception& e) {
                respond(error_response(request.id, to_string(request.op),
                                       error_from_exception(e)));
            } catch (...) {
                respond(error_response(
                    request.id, to_string(request.op),
                    Error(ErrorCode::InternalError, "unknown exception")));
            }
            finish_one();
        });
    }

    log << "draining (" << drain_reason << "): "
        << in_flight_.load(std::memory_order_acquire)
        << " request(s) in flight\n";
    log.flush();
    pool_.wait_idle();
    if (acknowledge_shutdown) {
        ServeRequest request;
        request.id = shutdown_id;
        request.op = RequestOp::Shutdown;
        respond(dispatch(request));
    }
    log << "final stats: " << render_stats_json() << "\n";
    log.flush();
    return kExitOk;
}

}  // namespace spmvcache
