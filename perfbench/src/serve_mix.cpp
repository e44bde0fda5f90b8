// serve-mix: a closed loop of two client threads calling
// Server::handle_line on one Server (request jobs = 1). The seeded mix is
// mostly repeated predicts over a hot set of .spmvc-backed files (plan
// cache hits), cold sampled (`approx`) predicts on fresh generator seeds
// that miss, insert and, because the plan cache's byte cap is below the
// mix's footprint, evict; some method-B, tune and stats requests; and
// every kSharedEvery-th round a cold key both clients send at the same
// moment, so duplicated model runs (the cache stampede) show as
// serve.misses_per_key above 1.
#include <barrier>
#include <set>
#include <thread>

#include "core/model_runner.hpp"
#include "inputs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/matrix_market.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using namespace spmvcache;

constexpr int kClients = 2;
constexpr std::int64_t kSharedEvery = 64;
/// Cold keys whose sampled predictions are also checked against exact.
constexpr std::size_t kMapeKeys = 12;

enum class Kind : std::uint8_t { HotA, HotB, Tune, Stats, Cold, SharedCold };

/// Barrier completion at every shared round: both clients stop together
/// once the measured seconds are up and enough requests are done.
struct StopCheck {
    double start = 0.0;
    double seconds = 0.0;
    std::size_t min_ops = 0;
    const std::atomic<std::size_t>* done = nullptr;
    bool* stop = nullptr;
    void operator()() noexcept {
        *stop = now_s() - start >= seconds && done->load() >= min_ops;
    }
};

/// The mix outside shared rounds, as exact counts per block of 200
/// requests (shuffled per block from the seed), so every run issues the
/// same composition: 80% hot predict A, 7% hot B, 4.5% tune, 6% stats and
/// 2.5% cold sampled predicts.
std::vector<Kind> mix_block() {
    std::vector<Kind> block;
    for (const auto& [kind, count] : {std::pair{Kind::HotA, 160}, std::pair{Kind::HotB, 14},
                                      std::pair{Kind::Tune, 9}, std::pair{Kind::Stats, 12},
                                      std::pair{Kind::Cold, 5}})
        block.insert(block.end(), static_cast<std::size_t>(count), kind);
    return block;
}

void shuffle(std::vector<Kind>& v, Xoshiro256& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.bounded(i)]);
}

struct Request {
    Kind kind = Kind::HotA;
    std::string key;  ///< the request line without its id
    double seconds = 0.0;
    std::string response;
};

std::string payload_of(const std::string& response) {
    const std::string marker = ",\"payload\":";
    const std::size_t at = response.find(marker);
    if (at == std::string::npos) return {};
    return response.substr(at + marker.size(),
                           response.size() - at - marker.size() - 1);
}

bool is_hit(const std::string& response) {
    return response.find("\"cache_hit\":true") != std::string::npos;
}

class ServeMix final : public Workload {
public:
    ServeMix(Context& ctx, bool smoke)
        : ctx_(ctx), dir_(ctx.work / "serve-mix") {
        hot_specs_ = smoke ? std::vector<std::string>{"stencil2d5:32", "randomcv:1500"}
                           : std::vector<std::string>{"stencil2d5:96", "stencil2d5:160",
                                                      "randomcv:8000", "randomcv:16000"};
        // Cold keys model one 12-thread L2 segment over a matrix whose
        // data (~8.7 MB) streams through its 8 MiB, so there are misses to
        // estimate; R = 0.1 keeps ~3.5k of its ~35k lines, enough for
        // SHARDS to land within a few percent.
        cold_spec_ = "randomcv:90000";
        options_.workers = 1;  // handle_line runs on the client threads
        options_.cache_capacity_bytes = smoke ? 4096 : 24 * 1024;
        options_.cache_dir = (dir_ / "spmvc").string();
    }

    void make_inputs() override {
        std::filesystem::create_directories(dir_);
        for (std::size_t i = 0; i < hot_specs_.size(); ++i) {
            const CsrMatrix m = generate(hot_specs_[i], ctx_.gen_seed());
            const std::filesystem::path path =
                dir_ / ("hot" + std::to_string(i) + ".mtx");
            write_matrix_market_file(path.string(), m);
            hot_paths_.push_back(path.string());
            // Warm the .spmvc entry so every hot load is an mmap.
            MatrixSource source;
            source.path = path.string();
            source.cache_dir = options_.cache_dir;
            Result<LoadedMatrix> warm = load_matrix_handle(source);
            if (!warm.ok()) throw std::runtime_error(warm.error().render());
            describe_matrix(ctx_, "serve-mix.hot" + std::to_string(i), warm.value().stats);
        }
        ctx_.record.set("serve-mix.cold_spec", cold_spec_);
        ctx_.record.set("serve-mix.plan_cache_bytes",
                        static_cast<double>(options_.cache_capacity_bytes));
        ctx_.record.set("decision.serve_approx_rate", kColdRate);
    }

    /// A fresh Server, with every hot key computed once.
    void setup() override {
        ScopedSpan span("bench.setup");
        server_.reset();
        server_ = std::make_unique<Server>(options_);
        for (std::size_t i = 0; i < hot_paths_.size(); ++i)
            for (const Kind kind : {Kind::HotA, Kind::HotB, Kind::Tune, Kind::Stats}) {
                const std::string response = server_->handle_line(hot_line(kind, i));
                if (response.find("\"ok\":true") == std::string::npos)
                    throw std::runtime_error("hot warm-up failed: " + response);
            }
    }

    /// Hits are fast enough for thousands of requests per run.
    [[nodiscard]] double tail_quantile() const override { return 0.99; }

    OpSamples run(double seconds, std::size_t min_ops) override {
        before_ = server_->stats();
        std::vector<std::vector<Request>> logs(kClients);
        bool stop = false;
        const double start = now_s();
        std::atomic<std::size_t> done{0};
        std::barrier<StopCheck> sync(kClients, StopCheck{start, seconds, min_ops, &done, &stop});
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(
                [&, c] { client(c, sync, stop, done, logs[static_cast<std::size_t>(c)]); });
        for (std::thread& t : clients) t.join();
        OpSamples out;
        out.wall_seconds = now_s() - start;
        out.concurrency = kClients;
        after_ = server_->stats();
        last_.clear();
        for (auto& log : logs)
            for (Request& r : log) {
                out.latencies.push_back(r.seconds);
                last_.push_back(r);
                all_.push_back(std::move(r));
            }
        ++runs_;
        return out;
    }

    void verify() override {
        // One reference payload per distinct request, from run_model and
        // the payload renderer directly, on nproc threads.
        std::map<std::string, std::string> refs;
        for (const Request& r : all_) refs[r.key];
        std::vector<std::map<std::string, std::string>::iterator> todo;
        for (auto it = refs.begin(); it != refs.end(); ++it) todo.push_back(it);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        for (int w = 0; w < ctx_.options.nproc; ++w)
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < todo.size(); i = next++)
                    todo[i]->second = reference(todo[i]->first, false);
            });
        for (std::thread& t : workers) t.join();
        for (const Request& r : all_) {
            const bool ok = r.response.find("\"ok\":true") != std::string::npos;
            ctx_.checks.expect(ok && payload_of(r.response) == refs.at(r.key),
                               "served payload differs from run_model: " + r.key);
        }
        check_sampled_error();
    }

    void summary(const OpSamples& samples, std::map<std::string, double>& out) override {
        out["serve_p50_ms"] = 1e3 * median(samples.latencies);
        if (samples.latencies.size() >= min_ops(tail_quantile()))
            out["serve_p99_ms"] = 1e3 * tail(samples.latencies, tail_quantile()).value;
        out["serve_req_per_s"] =
            static_cast<double>(samples.latencies.size()) / samples.wall_seconds;
        out["approx_error_pct"] = approx_error_pct_;
    }

    void layer_metrics(const std::vector<Span>&, Metrics& out) override {
        std::vector<double> hits;
        std::vector<double> misses;
        std::set<std::string> missed_keys;
        for (const Request& r : last_) {
            if (is_hit(r.response)) {
                hits.push_back(r.seconds);
            } else {
                misses.push_back(r.seconds);
                missed_keys.insert(r.key);
            }
        }
        const auto delta = [](std::uint64_t a, std::uint64_t b) {
            return static_cast<double>(b - a);
        };
        const double plan_hits = delta(before_.cache.hits, after_.cache.hits);
        const double plan_misses = delta(before_.cache.misses, after_.cache.misses);
        const double src_hits = delta(before_.source_hits, after_.source_hits);
        const double src_loads = delta(before_.source_loads, after_.source_loads);
        out.set("serve.hit_ms", 1e3 * trusted(median(hits), "serve hit"), "ms");
        out.set("serve.miss_ms", 1e3 * trusted(median(misses), "serve miss"), "ms");
        out.set("serve.plan_hit_ratio", plan_hits / (plan_hits + plan_misses), "ratio");
        out.set("serve.source_hit_ratio", src_hits / (src_hits + src_loads), "ratio");
        out.set("serve.misses_per_key",
                plan_misses / static_cast<double>(std::max<std::size_t>(missed_keys.size(), 1)),
                "ratio");
        out.set("serve.evictions", delta(before_.cache.evictions, after_.cache.evictions),
                "count");
        out.set("serve.rejected",
                delta(before_.rejected_overload, after_.rejected_overload), "count");
        out.set("serve.retries", delta(before_.retries, after_.retries), "count");

        // Per-call costs of the protocol layer, batched above the clock floor.
        std::vector<std::string> lines;
        for (const Request& r : last_) lines.push_back(r.key);
        const double parse_s = time_call("serve.parse_request", [&] {
            for (const std::string& line : lines) (void)parse_request(line);
        });
        out.set("serve.parse_request_us",
                1e6 * trusted(parse_s, "serve.parse_request") / static_cast<double>(lines.size()),
                "us");
        ModelResult result;
        MatrixFingerprint fp;
        (void)reference(hot_line(Kind::HotA, 0), false, &result, &fp);
        constexpr int kRenders = 2000;
        const double render_s = time_call("serve.render_payload", [&] {
            for (int i = 0; i < kRenders; ++i)
                (void)render_predict_payload(result, fp, "a", kSimThreads);
        });
        out.set("serve.render_us", 1e6 * trusted(render_s, "serve.render") / kRenders, "us");
        out.set("serve.approx_error_pct", approx_error_pct_, "%");
    }

private:
    static constexpr double kColdRate = 0.1;

    std::string hot_line(Kind kind, std::size_t i) const {
        const std::string matrix = "\"matrix\":" + json_quote(hot_paths_[i]);
        switch (kind) {
            case Kind::HotB:
                return "{\"op\":\"predict\"," + matrix + ",\"method\":\"b\",\"jobs\":1}";
            case Kind::Tune: return "{\"op\":\"tune\"," + matrix + ",\"jobs\":1}";
            case Kind::Stats: return "{\"op\":\"stats\"," + matrix + "}";
            default:
                return "{\"op\":\"predict\"," + matrix + ",\"method\":\"a\",\"jobs\":1}";
        }
    }

    std::string cold_line(std::uint64_t seed) const {
        return "{\"op\":\"predict\",\"gen\":\"" + cold_spec_ + "\",\"seed\":" +
               std::to_string(seed) + ",\"approx\":" + json_double(kColdRate) +
               ",\"threads\":12,\"jobs\":1}";
    }

    /// Seeds that never repeat within or across runs of one benchmark seed.
    std::uint64_t cold_seed(std::uint64_t stream, std::uint64_t n) const {
        return (ctx_.options.seed % 1000003) * 1000000000ULL + stream * 100000000ULL +
               static_cast<std::uint64_t>(runs_) * 10000000ULL + n;
    }

    void client(int c, std::barrier<StopCheck>& sync, const bool& stop,
                std::atomic<std::size_t>& done, std::vector<Request>& log) {
        Xoshiro256 rng(ctx_.options.seed * 7919 + static_cast<std::uint64_t>(c) + 1 +
                       100 * static_cast<std::uint64_t>(runs_));
        std::uint64_t cold = 0;
        std::uint64_t shared = 0;
        std::vector<Kind> block = mix_block();
        std::size_t next = block.size();
        for (std::int64_t round = 0;; ++round) {
            Request r;
            if (round % kSharedEvery == kSharedEvery - 1) {
                sync.arrive_and_wait();
                if (stop) return;
                r.kind = Kind::SharedCold;
                r.key = cold_line(cold_seed(kClients, shared++));
            } else {
                if (next >= block.size()) {
                    shuffle(block, rng);
                    next = 0;
                }
                r.kind = block[next++];
                const std::size_t hot = rng.bounded(hot_paths_.size());
                r.key = r.kind == Kind::Cold
                            ? cold_line(cold_seed(static_cast<std::uint64_t>(c), cold++))
                            : hot_line(r.kind, hot);
            }
            const std::string line = "{\"id\":\"c" + std::to_string(c) + "-" +
                                     std::to_string(round) + "\"," + r.key.substr(1);
            Tracer::set_op(round * kClients + c);
            const double start = now_s();
            {
                ScopedSpan span("serve.handle_line");
                r.response = server_->handle_line(line);
            }
            r.seconds = now_s() - start;
            log.push_back(std::move(r));
            ++done;
        }
    }

    ModelOptions options_for(const ServeRequest& req, ModelMethod& method) const {
        ModelOptions o = predict_options(req.jobs, req.sample_rate);
        o.threads = req.threads;
        method = req.method == "b" ? ModelMethod::B : ModelMethod::A;
        if (req.op == RequestOp::Tune) {
            o.l2_way_options = {1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14};
            o.predict_l1 = false;
            method = ModelMethod::A;
        }
        return o;
    }

    /// The payload a request must produce, computed from the library
    /// directly: load, run_model, render. `force_exact` drops the
    /// request's sampling (the baseline sampled predictions are held to).
    std::string reference(const std::string& key, bool force_exact,
                          ModelResult* result_out = nullptr,
                          MatrixFingerprint* fp_out = nullptr) const {
        Result<ServeRequest> parsed = parse_request(key);
        if (!parsed.ok()) return "parse error";
        ServeRequest req = std::move(parsed).value();
        if (force_exact) req.sample_rate = 1.0;
        req.source.cache_dir = options_.cache_dir;
        Result<LoadedMatrix> loaded = load_matrix_handle(req.source);
        if (!loaded.ok()) return "load error";
        const LoadedMatrix& m = loaded.value();
        if (fp_out != nullptr) *fp_out = m.fingerprint;
        if (req.op == RequestOp::Stats) return render_stats_payload(m.stats, m.fingerprint);
        ModelMethod method = ModelMethod::A;
        const ModelOptions o = options_for(req, method);
        Result<ModelResult> r = run_model(m, o, method);
        if (!r.ok()) return "model error";
        if (result_out != nullptr) *result_out = r.value();
        return req.op == RequestOp::Tune
                   ? render_tune_payload(r.value(), m.fingerprint, req.threads)
                   : render_predict_payload(r.value(), m.fingerprint, req.method,
                                            req.threads);
    }

    /// MAPE of the sampled L2 predictions against exact ones, over the
    /// first kMapeKeys distinct cold keys; test_sampled's 5% bound.
    void check_sampled_error() {
        std::vector<std::string> keys;
        std::set<std::string> seen;
        for (const Request& r : all_)
            if ((r.kind == Kind::Cold || r.kind == Kind::SharedCold) &&
                seen.insert(r.key).second && keys.size() < kMapeKeys)
                keys.push_back(r.key);
        std::vector<double> ape(keys.size(), 0.0);
        std::vector<double> terms(keys.size(), 0.0);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        for (int w = 0; w < ctx_.options.nproc; ++w)
            workers.emplace_back([&] {
                for (std::size_t i = next++; i < keys.size(); i = next++) {
                    ModelResult sampled;
                    ModelResult exact;
                    (void)reference(keys[i], false, &sampled);
                    (void)reference(keys[i], true, &exact);
                    for (std::size_t k = 0; k < exact.configs.size(); ++k) {
                        if (exact.configs[k].l2_misses <= 0.0) continue;
                        ape[i] += std::abs(sampled.configs[k].l2_misses -
                                           exact.configs[k].l2_misses) /
                                  exact.configs[k].l2_misses;
                        terms[i] += 1.0;
                    }
                }
            });
        for (std::thread& t : workers) t.join();
        double sum = 0.0;
        double n = 0.0;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            sum += ape[i];
            n += terms[i];
        }
        approx_error_pct_ = n > 0.0 ? 100.0 * sum / n : 0.0;
        ctx_.checks.expect(n > 0.0 && approx_error_pct_ <= 5.0,
                           "sampled predictions exceed 5% MAPE: " +
                               json_number(approx_error_pct_));
    }

    Context& ctx_;
    std::filesystem::path dir_;  ///< this workload's inputs
    std::vector<std::string> hot_specs_;
    std::string cold_spec_;
    ServeOptions options_;
    std::vector<std::string> hot_paths_;
    std::unique_ptr<Server> server_;
    ServeStats before_;
    ServeStats after_;
    std::vector<Request> all_;
    std::vector<Request> last_;
    int runs_ = 0;
    double approx_error_pct_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(Context& ctx, bool smoke) {
    return std::make_unique<ServeMix>(ctx, smoke);
}

}  // namespace perfbench
