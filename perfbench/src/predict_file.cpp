// predict-file: the one-shot user's path. A .mtx on disk (no .spmvc) goes
// through the serial parser, fingerprint and stats, then exact method A
// or method B on the paper's default way list, and comes out as
// prediction JSON. One operation is one round: both matrices through
// both methods, each as its own one-shot prediction.
#include <memory>

#include "core/model_runner.hpp"
#include "inputs.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "reuse/kim.hpp"
#include "reuse/olken.hpp"
#include "reuse/sampled.hpp"
#include "serve/protocol.hpp"
#include "sparse/fingerprint.hpp"
#include "sparse/matrix_market.hpp"
#include "trace/packed_trace.hpp"
#include "trace/spmv_trace.hpp"

namespace perfbench {

namespace {

using namespace spmvcache;

struct Input {
    std::string spec;
    std::string name;
    std::filesystem::path path;
    double file_bytes = 0.0;
};

struct OpRecord {
    std::size_t input = 0;
    ModelMethod method = ModelMethod::A;
    std::uint64_t digest = 0;
    double seconds = 0.0;
    bool ok = false;
};

constexpr std::size_t kBatch = 1024;

/// Replays `lines` through `engine` in access_batch batches; returns
/// seconds spent in the calls.
template <class Engine>
double replay(Engine& engine, const std::vector<std::uint64_t>& lines) {
    std::vector<std::uint64_t> dists(kBatch);
    double seconds = 0.0;
    for (std::size_t i = 0; i < lines.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, lines.size() - i);
        const double start = now_s();
        engine.access_batch(lines.data() + i, dists.data(), n);
        seconds += now_s() - start;
    }
    return seconds;
}

class PredictFile final : public Workload {
public:
    PredictFile(Context& ctx, bool smoke)
        : ctx_(ctx), dir_(ctx.work / "predict-file") {
        // stencil2d5 at 560^2 rows: x fits sector 0 but x, y and rowptr
        // together do not (class 3a); randomcv has CV_K ~ 1 and streams its
        // matrix data past x, y and rowptr (class 2).
        inputs_ = {{smoke ? "stencil2d5:96" : "stencil2d5:560", "stencil", {}, 0},
                   {smoke ? "randomcv:6000" : "randomcv:50000", "randomcv", {}, 0}};
    }

    void make_inputs() override {
        std::filesystem::create_directories(dir_);
        for (Input& in : inputs_) {
            const CsrMatrix m = generate(in.spec, ctx_.gen_seed());
            in.path = dir_ / (in.name + ".mtx");
            write_matrix_market_file(in.path.string(), m);
            in.file_bytes = static_cast<double>(std::filesystem::file_size(in.path));
            describe_matrix(ctx_, "predict-file." + in.name, compute_stats(m));
        }
    }

    /// Forces the once-per-process calibrations the model would otherwise
    /// pay inside the first timed operation, and loads each file once.
    void setup() override {
        ScopedSpan span("bench.setup");
        ctx_.record.set("decision.olken_interleave_width",
                        static_cast<double>(OlkenEngine::interleave_width()));
        ctx_.record.set("decision.kim_interleave_width",
                        static_cast<double>(KimEngine::interleave_width()));
        ctx_.record.set("decision.olken_batch_mode", OlkenEngine::batch_mode());
        ctx_.record.set("decision.kim_batch_mode", KimEngine::batch_mode());
        for (const Input& in : inputs_) {
            MatrixSource source;
            source.path = in.path.string();
            Result<LoadedMatrix> loaded = load_matrix_handle(source);
            if (!loaded.ok()) throw std::runtime_error(loaded.error().render());
        }
    }

    [[nodiscard]] double tail_quantile() const override { return 1.0; }

    OpSamples run(double seconds, std::size_t min_ops) override {
        OpSamples out;
        const double start = now_s();
        do {
            double round = 0.0;
            for (std::size_t i = 0; i < inputs_.size(); ++i)
                for (const ModelMethod method : {ModelMethod::A, ModelMethod::B})
                    round += one_shot(i, method);
            out.latencies.push_back(round);
        } while (now_s() - start < seconds || out.latencies.size() < min_ops);
        out.wall_seconds = now_s() - start;
        return out;
    }

    void verify() override {
        ctx_.record.set("decision.model_jobs", static_cast<double>(ctx_.options.nproc));
        ctx_.record.set("decision.model_packed_shards", static_cast<double>(packed_shards_));
        ctx_.record.set("decision.model_streamed_shards", static_cast<double>(streamed_shards_));
        ctx_.record.set("decision.model_sample_rate", 1.0);
        for (const OpRecord& r : ops_) {
            const std::string key = "predict-file/" + inputs_[r.input].spec + "@" +
                                    std::to_string(ctx_.gen_seed()) + "/" +
                                    to_string(r.method);
            ctx_.checks.expect(r.ok && ctx_.expected->matches(key, r.digest),
                               "prediction differs from the recorded one: " + key);
        }
    }

    void summary(const OpSamples&, std::map<std::string, double>& out) override {
        std::map<std::int64_t, double> a;
        std::map<std::int64_t, double> b;
        for (std::size_t k = 0; k < ops_.size(); ++k)
            (ops_[k].method == ModelMethod::A ? a : b)[k / 4] += ops_[k].seconds;
        const auto med = [](const std::map<std::int64_t, double>& m) {
            std::vector<double> v;
            for (const auto& [round, s] : m) v.push_back(s);
            return median(v);
        };
        out["predict_a_s"] = med(a);
        out["predict_b_s"] = med(b);
    }

    void layer_metrics(const std::vector<Span>& spans, Metrics& out) override {
        out.set("sparse.parse_s", median(per_op_seconds(spans, "sparse.parse", 4)), "s");
        const SpanSum parse = span_sum(spans, "sparse.parse");
        out.set("sparse.parse_mb_per_s", parse.count / 1e6 / parse.seconds, "MB/s");
        out.set("sparse.fingerprint_s",
                median(per_op_seconds(spans, "sparse.fingerprint", 4)), "s");
        out.set("sparse.stats_s", median(per_op_seconds(spans, "sparse.stats", 4)), "s");
        out.set("bench.predict_unattributed_pct", unattributed_pct(spans, "predict.op"),
                "%");
        probe_layers(out);
    }

private:
    /// One one-shot prediction: parse, fingerprint, stats, model, render.
    double one_shot(std::size_t i, ModelMethod method) {
        const Input& in = inputs_[i];
        Tracer::set_op(static_cast<std::int64_t>(ops_.size()));
        OpRecord rec;
        rec.input = i;
        rec.method = method;
        const double start = now_s();
        {
            ScopedSpan op("predict.op");
            Result<AnyCsrMatrix> parsed = Error(ErrorCode::InternalError, "unrun");
            {
                ScopedSpan span("sparse.parse");
                span.set_count(in.file_bytes);
                parsed = try_read_matrix_market_any_file(in.path.string());
            }
            if (parsed.ok()) {
                LoadedMatrix loaded;
                loaded.owned =
                    std::make_shared<const AnyCsrMatrix>(std::move(parsed).value());
                loaded.view = loaded.owned->view();
                {
                    ScopedSpan span("sparse.fingerprint");
                    loaded.fingerprint = fingerprint_matrix(loaded.view);
                }
                {
                    ScopedSpan span("sparse.stats");
                    loaded.stats = compute_stats(loaded.view);
                }
                Result<ModelResult> result = Error(ErrorCode::InternalError, "unrun");
                {
                    ScopedSpan span("model.run_model");
                    result = run_model(loaded, predict_options(ctx_.options.nproc), method);
                }
                if (result.ok()) {
                    for (const ShardStats& sh : result.value().shards)
                        ++(sh.packed_replay ? packed_shards_ : streamed_shards_);
                    ScopedSpan span("serve.render_payload");
                    const std::string payload = render_predict_payload(
                        result.value(), loaded.fingerprint,
                        method == ModelMethod::A ? "a" : "b", kSimThreads);
                    rec.digest = fnv1a(payload);
                    rec.ok = true;
                }
            }
        }
        rec.seconds = now_s() - start;
        ops_.push_back(rec);
        return rec.seconds;
    }

    /// Direct calls into trace, reuse and model on the parsed matrices.
    void probe_layers(Metrics& out) {
        const ModelOptions options = predict_options(ctx_.options.nproc);
        const std::int64_t cores_per_numa = options.machine.cores_per_numa;
        const std::int64_t segments = trace_segment_count(kSimThreads, cores_per_numa);
        const TraceConfig cfg{kSimThreads, options.partition, options.quantum};
        double refs = 0.0, derive_s = 0.0, pack_s = 0.0;
        double replayed = 0.0, olken_s = 0.0, kim_s = 0.0, sampled_s = 0.0;
        double method_a_s = 0.0, method_b_s = 0.0, approx_s = 0.0, run_model_s = 0.0;
        double shard_s = 0.0, wall_jobs_s = 0.0, packed = 0.0, shards = 0.0;
        double imbalance = 0.0, ape = 0.0, ape_terms = 0.0;
        for (const Input& in : inputs_) {
            Result<AnyCsrMatrix> parsed = try_read_matrix_market_any_file(in.path.string());
            if (!parsed.ok()) throw std::runtime_error(parsed.error().render());
            LoadedMatrix loaded;
            loaded.owned = std::make_shared<const AnyCsrMatrix>(std::move(parsed).value());
            loaded.view = loaded.owned->view();
            loaded.fingerprint = fingerprint_matrix(loaded.view);
            loaded.stats = compute_stats(loaded.view);
            const AnyCsrView view = loaded.view;
            const SpmvLayout layout(view.rows(), view.cols(), view.nnz(),
                                    options.machine.l2.line_bytes,
                                    options.colidx_bytes_for(view.index_width()),
                                    options.rowptr_bytes_for(view.index_width()));
            refs += static_cast<double>(spmv_trace_length(view.rows(), view.nnz()));
            std::uint64_t counted = 0;
            derive_s += time_call("trace.derive", [&] {
                view.visit([&](const auto& v) {
                    generate_spmv_trace(v, layout, cfg,
                                        [&counted](const MemRef&) { ++counted; });
                });
            });
            ctx_.checks.expect(counted == spmv_trace_length(view.rows(), view.nnz()),
                               "derived trace length differs from spmv_trace_length");

            std::vector<std::uint64_t> segment0;
            for (std::int64_t s = 0; s < segments; ++s) {
                Result<std::vector<std::uint64_t>> words = Error(ErrorCode::InternalError, "");
                pack_s += time_call("trace.pack", [&] {
                    words = view.visit([&](const auto& v) {
                        return try_pack_spmv_trace_segment(v, layout, cfg, cores_per_numa, s);
                    });
                });
                if (!words.ok()) throw std::runtime_error(words.error().render());
                if (s == 0) segment0 = std::move(words).value();
            }
            std::vector<std::uint64_t> lines;
            lines.reserve(segment0.size());
            for (const std::uint64_t w : segment0) lines.push_back(packed_line(w));
            const std::size_t hint = layout.total_lines() / static_cast<std::size_t>(segments) + 64;
            replayed += static_cast<double>(lines.size());
            {
                ScopedSpan span("reuse.olken");
                OlkenEngine engine(hint);
                olken_s += replay(engine, lines);
            }
            {
                ScopedSpan span("reuse.kim");
                KimEngine engine(options.kim_group_capacity);
                kim_s += replay(engine, lines);
            }
            {
                ScopedSpan span("reuse.sampled");
                SampledEngine<OlkenEngine> engine(SampleFilter(0.01), hint);
                sampled_s += replay(engine, lines);
            }

            ModelResult exact;
            method_a_s += time_call("model.method_a", [&] { exact = run_method_a(view, options); });
            method_b_s += time_call("model.method_b", [&] { (void)run_method_b(view, options); });
            ModelOptions approx_options = options;
            approx_options.sample_rate = 0.01;
            ModelResult approx;
            approx_s += time_call("model.approx", [&] { approx = run_method_a(view, approx_options); });
            // Every predicted miss count the exact run makes non-zero: the
            // L2 configurations and the L1 (cache-resident matrices only
            // miss in L1).
            const auto add_ape = [&](double want, double got) {
                if (want <= 0.0) return;
                ape += std::abs(got - want) / want;
                ape_terms += 1.0;
            };
            for (std::size_t c = 0; c < exact.configs.size(); ++c)
                add_ape(exact.configs[c].l2_misses, approx.configs[c].l2_misses);
            add_ape(exact.l1_misses, approx.l1_misses);
            run_model_s += time_call("model.run_model", [&] {
                Result<ModelResult> r = run_model(loaded, options, ModelMethod::A);
                ctx_.checks.expect(r.ok(), "run_model failed in the layer probe");
            });

            double max_s = 0.0, sum_s = 0.0;
            for (const ShardStats& sh : exact.shards) {
                max_s = std::max(max_s, sh.seconds);
                sum_s += sh.seconds;
                packed += sh.packed_replay ? 1.0 : 0.0;
            }
            shards += static_cast<double>(exact.shards.size());
            shard_s += sum_s;
            wall_jobs_s += static_cast<double>(exact.jobs) * exact.seconds;
            imbalance += max_s / (sum_s / static_cast<double>(exact.shards.size()));
        }
        const double n = static_cast<double>(inputs_.size());
        out.set("trace.refs", refs, "count");
        out.set("trace.derive_refs_per_s", refs / trusted(derive_s, "trace.derive"), "1/s");
        out.set("trace.pack_s", trusted(pack_s, "trace.pack"), "s");
        out.set("reuse.olken_refs_per_s", replayed / trusted(olken_s, "reuse.olken"), "1/s");
        out.set("reuse.kim_refs_per_s", replayed / trusted(kim_s, "reuse.kim"), "1/s");
        out.set("reuse.sampled_refs_per_s", replayed / trusted(sampled_s, "reuse.sampled"),
                "1/s");
        out.set("model.method_a_s", trusted(method_a_s, "model.method_a"), "s");
        out.set("model.method_b_s", trusted(method_b_s, "model.method_b"), "s");
        out.set("model.approx_s", trusted(approx_s, "model.approx"), "s");
        out.set("model.shard_imbalance", imbalance / n, "ratio");
        out.set("model.parallel_efficiency", shard_s / wall_jobs_s, "ratio");
        out.set("model.packed_shard_ratio", packed / shards, "ratio");
        out.set("model.run_model_overhead_s", run_model_s - method_a_s, "s");
        out.set("model.approx_error_pct", 100.0 * ape / ape_terms, "%");
        ctx_.record.set("decision.probe_approx_sample_rate", 0.01);
    }

    Context& ctx_;
    std::filesystem::path dir_;  ///< this workload's inputs
    std::vector<Input> inputs_;
    std::vector<OpRecord> ops_;
    std::uint64_t packed_shards_ = 0;
    std::uint64_t streamed_shards_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_predict_file(Context& ctx, bool smoke) {
    return std::make_unique<PredictFile>(ctx, smoke);
}

}  // namespace perfbench
