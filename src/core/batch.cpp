#include "core/batch.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <ostream>
#include <thread>
#include <utility>

#include "core/deadline.hpp"
#include "core/matrix_source.hpp"
#include "model/method_a.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/csv.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"

namespace spmvcache {

namespace {

namespace fs = std::filesystem;

/// One attempt at one matrix; every stage failure is captured in the
/// returned item, never thrown.
BatchItemResult attempt_one(const std::string& path,
                            const BatchOptions& options) {
    BatchItemResult item;
    item.path = path;
    item.name = fs::path(path).stem().string();
    const auto started = std::chrono::steady_clock::now();
    const auto finish = [&](BatchItemResult r) {
        r.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started)
                        .count();
        return r;
    };
    const auto fail = [&](BatchItemResult r, Error e) {
        r.ok = false;
        r.code = e.code;
        r.message = e.render();
        return finish(std::move(r));
    };

    try {
        item.stage = BatchStage::Parse;
        if (Status s = fault::maybe_fail("batch.item"); !s.ok())
            return fail(std::move(item), std::move(s).to_error());
        MatrixSource source;
        source.path = path;
        source.strict_parse = options.strict_parse;
        source.cache_dir = options.cache_dir;
        source.parse_jobs = options.parse_jobs;
        source.index_width = options.index_width;
        Result<LoadedMatrix> handle = load_matrix_handle(source);
        if (!handle.ok())
            return fail(std::move(item), std::move(handle).to_error());
        const LoadedMatrix loaded = std::move(handle).value();
        const AnyCsrView m = loaded.view;
        item.load_origin = to_string(loaded.origin);
        item.cache_written = loaded.cache_written;
        item.rows = m.rows();
        item.cols = m.cols();
        item.nnz = m.nnz();

        item.stage = BatchStage::Validate;
        if (Status s = m.visit([](const auto& v) { return check_csr_view(v); });
            !s.ok())
            return fail(std::move(item),
                        std::move(s).wrap("validating '" + path + "'")
                            .to_error());

        // Stats were computed once during the load (or read back from the
        // cache header), so the stage is an accounting marker only.
        item.stage = BatchStage::Stats;
        (void)loaded.stats;

        if (options.run_model) {
            item.stage = BatchStage::Model;
            ModelOptions model;
            model.threads = options.threads;
            model.jobs = options.jobs;
            model.predict_l1 = false;
            model.sample_rate = options.sample_rate;
            const ModelResult result = run_method_a(m, model);
            const ConfigPrediction& best = result.best();
            item.best_l2_ways = best.l2_sector_ways;
            item.best_l2_misses = best.l2_misses;
            item.model_seconds = result.seconds;
            item.model_shards =
                static_cast<std::int64_t>(result.shards.size());
            item.model_jobs = result.jobs;
            for (const auto& shard : result.shards)
                item.model_references += shard.references;
            item.model_sampled = result.sampled;
            item.model_sample_rate = result.sample_rate;
            item.model_sampled_refs = result.sampled_refs;
        }
        item.ok = true;
        item.code = ErrorCode::Ok;
        return finish(std::move(item));
    } catch (const std::exception& e) {
        return fail(std::move(item), error_from_exception(e));
    } catch (...) {
        return fail(std::move(item),
                    Error(ErrorCode::InternalError, "unknown exception"));
    }
}

/// attempt_one under the shared wall-clock mechanism (core/deadline.hpp).
/// On timeout the worker thread is abandoned (detached) and the matrix
/// recorded as TimeoutError; threads cannot be killed portably, so a stuck
/// parse may keep a core busy until process exit — the sweep itself
/// continues. The lambda copies path and options so the abandoned thread
/// never touches caller stack.
BatchItemResult attempt_with_timeout(const std::string& path,
                                     const BatchOptions& options) {
    // BatchOptions::cancel_check is not copyable into the detached worker
    // cheaply and must not be consulted mid-item anyway (items are the
    // isolation unit), so strip it before the capture.
    BatchOptions worker_options = options;
    worker_options.cancel_check = nullptr;
    Result<BatchItemResult> attempted = run_with_deadline<BatchItemResult>(
        options.timeout_seconds, [path, worker_options] {
            return Result<BatchItemResult>(
                attempt_one(path, worker_options));
        });
    if (attempted.ok()) return std::move(attempted).value();
    BatchItemResult item;
    item.path = path;
    item.name = fs::path(path).stem().string();
    item.ok = false;
    item.stage = BatchStage::Parse;
    item.code = attempted.error().code;
    item.seconds = options.timeout_seconds;
    item.message = Error(attempted.error())
                       .wrap("per-matrix budget")
                       .render();
    return item;
}

/// A matrix the drained sweep never started, recorded so the report still
/// names every input.
BatchItemResult cancelled_item(const std::string& path) {
    BatchItemResult item;
    item.path = path;
    item.name = fs::path(path).stem().string();
    item.ok = false;
    item.stage = BatchStage::Parse;
    item.code = ErrorCode::Cancelled;
    item.message = Error(ErrorCode::Cancelled,
                         "sweep drained before this matrix started")
                       .render();
    return item;
}

}  // namespace

const char* to_string(BatchStage stage) noexcept {
    switch (stage) {
        case BatchStage::Parse: return "parse";
        case BatchStage::Validate: return "validate";
        case BatchStage::Stats: return "stats";
        case BatchStage::Model: return "model";
    }
    return "unknown";
}

std::size_t BatchReport::succeeded() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(items.begin(), items.end(),
                      [](const BatchItemResult& i) { return i.ok; }));
}

std::size_t BatchReport::failed() const noexcept {
    return items.size() - succeeded();
}

int BatchReport::exit_code() const noexcept {
    return failed() == 0 ? kExitOk : kExitSomeFailed;
}

int exit_code_for_exception(const std::exception& e) noexcept {
    const auto* status = dynamic_cast<const StatusError*>(&e);
    return status != nullptr && status->code() == ErrorCode::ParseError
               ? kExitUsage
               : kExitSomeFailed;
}

[[nodiscard]] Result<std::vector<std::string>> collect_matrix_paths(
    const std::string& spec) {
    std::error_code ec;
    if (fs::is_directory(spec, ec)) {
        std::vector<std::string> paths;
        for (const auto& entry : fs::directory_iterator(spec, ec)) {
            if (!entry.is_regular_file()) continue;
            if (entry.path().extension() != ".mtx") continue;
            paths.push_back(entry.path().string());
        }
        if (ec)
            return Error(ErrorCode::ResourceError,
                         "cannot list directory '" + spec +
                             "': " + ec.message());
        std::sort(paths.begin(), paths.end());
        if (paths.empty())
            return Error(ErrorCode::ResourceError,
                         "no .mtx files in directory '" + spec + "'");
        return paths;
    }
    if (!fs::is_regular_file(spec, ec)) {
        if (fs::exists(spec, ec))
            return Error(ErrorCode::ResourceError,
                         "'" + spec + "' is not a regular file or directory");
        return Error(ErrorCode::ResourceError,
                     "no such file or directory: '" + spec + "'");
    }
    if (fs::path(spec).extension() == ".mtx")
        return std::vector<std::string>{spec};
    // Anything else is a list file: one matrix path per line.
    std::ifstream in(spec);
    if (!in)
        return Error(ErrorCode::ResourceError,
                     "cannot open list file '" + spec + "'");
    std::vector<std::string> paths;
    std::string line;
    while (std::getline(in, line)) {
        const std::string t = trim(line);
        if (t.empty() || t[0] == '#') continue;
        paths.push_back(t);
    }
    if (paths.empty())
        return Error(ErrorCode::ValidationError,
                     "list file '" + spec + "' names no matrices");
    return paths;
}

BatchReport run_batch(const std::vector<std::string>& paths,
                      const BatchOptions& options) {
    BatchReport report;
    report.items.reserve(paths.size());
    const auto cancelled = [&options] {
        return options.cancel_check && options.cancel_check();
    };
    for (std::size_t n = 0; n < paths.size(); ++n) {
        const std::string& path = paths[n];
        if (cancelled()) {
            // Graceful drain: record this and every remaining matrix as
            // Cancelled so the failure report stays complete, then stop.
            for (std::size_t rest = n; rest < paths.size(); ++rest)
                report.items.push_back(cancelled_item(paths[rest]));
            break;
        }
        BatchItemResult item = attempt_with_timeout(path, options);
        if (!item.ok && options.retry_transient &&
            is_transient(item.code) && !cancelled()) {
            item = attempt_with_timeout(path, options);
            item.retried = true;
        }
        report.items.push_back(std::move(item));
    }
    return report;
}

void write_batch_report_csv(std::ostream& out, const BatchReport& report) {
    out << "name,path,status,stage,error_code,message,retried,seconds,"
           "load_origin,cache_written,"
           "rows,cols,nnz,best_l2_ways,best_l2_misses,"
           "model_seconds,model_shards,model_jobs,model_references,"
           "model_sampled,model_sample_rate,model_sampled_refs\n";
    for (const auto& i : report.items) {
        out << csv_quote(i.name) << ',' << csv_quote(i.path) << ','
            << (i.ok ? "ok" : "failed") << ',' << to_string(i.stage) << ','
            << to_string(i.code) << ',' << csv_quote(i.message) << ','
            << (i.retried ? 1 : 0) << ',' << json_double(i.seconds) << ','
            << csv_quote(i.load_origin) << ',' << (i.cache_written ? 1 : 0)
            << ',' << i.rows
            << ',' << i.cols << ',' << i.nnz << ',' << i.best_l2_ways << ','
            << json_double(i.best_l2_misses) << ','
            << json_double(i.model_seconds) << ','
            << i.model_shards << ',' << i.model_jobs << ','
            << i.model_references << ',' << (i.model_sampled ? 1 : 0) << ','
            << json_double(i.model_sample_rate) << ','
            << i.model_sampled_refs << '\n';
    }
}

void write_batch_report_json(std::ostream& out, const BatchReport& report) {
    out << "{\n  \"total\": " << report.items.size()
        << ",\n  \"succeeded\": " << report.succeeded()
        << ",\n  \"failed\": " << report.failed()
        << ",\n  \"exit_code\": " << report.exit_code()
        << ",\n  \"items\": [\n";
    for (std::size_t n = 0; n < report.items.size(); ++n) {
        const auto& i = report.items[n];
        out << "    {\"name\": " << json_quote(i.name)
            << ", \"path\": " << json_quote(i.path)
            << ", \"ok\": " << (i.ok ? "true" : "false")
            << ", \"stage\": \"" << to_string(i.stage)
            << "\", \"error_code\": \"" << to_string(i.code)
            << "\", \"message\": " << json_quote(i.message)
            << ", \"retried\": " << (i.retried ? "true" : "false")
            << ", \"seconds\": " << json_double(i.seconds)
            << ", \"load_origin\": " << json_quote(i.load_origin)
            << ", \"cache_written\": "
            << (i.cache_written ? "true" : "false")
            << ", \"rows\": " << i.rows
            << ", \"cols\": " << i.cols << ", \"nnz\": " << i.nnz
            << ", \"best_l2_ways\": " << i.best_l2_ways
            << ", \"best_l2_misses\": " << json_double(i.best_l2_misses)
            << ", \"model_seconds\": " << json_double(i.model_seconds)
            << ", \"model_shards\": " << i.model_shards
            << ", \"model_jobs\": " << i.model_jobs
            << ", \"model_references\": " << i.model_references
            << ", \"model_sampled\": " << (i.model_sampled ? "true" : "false")
            << ", \"model_sample_rate\": "
            << json_double(i.model_sample_rate)
            << ", \"model_sampled_refs\": " << i.model_sampled_refs << "}"
            << (n + 1 < report.items.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace spmvcache
