// sweep-sim: the measured side of every paper bench. run_sector_sweep
// plays one warm-up and one measured SpMV iteration through the Fig. 2
// grid (the baseline plus L2 2..6 x L1 0..3 sector ways, 21 simulated
// A64FX machines at 48 threads) for both matrices, one sweep at a time on
// one host thread: concurrent sweeps on a shared host measured the
// scheduler more than the simulator. Set-up loads each matrix from its
// .spmvc entry; the reuse engines and the model never run.
#include <memory>

#include "core/experiment.hpp"
#include "inputs.hpp"
#include "sparse/matrix_market.hpp"
#include "trace/spmv_trace.hpp"

namespace perfbench {

namespace {

using namespace spmvcache;

struct Input {
    std::string spec;
    std::string name;
    MatrixSource source;
    LoadedMatrix loaded;
};

std::vector<SectorWays> fig2_grid() {
    std::vector<SectorWays> configs{SectorWays{0, 0}};
    for (std::uint32_t l2 = 2; l2 <= 6; ++l2)
        for (std::uint32_t l1 = 0; l1 <= 3; ++l1) configs.push_back(SectorWays{l2, l1});
    return configs;
}

/// Digest over every counter of every configuration, in grid order.
std::uint64_t counters_digest(const std::vector<MeasuredConfig>& results) {
    std::string bytes;
    const auto add = [&bytes](std::uint64_t v) { bytes += std::to_string(v) + ","; };
    for (const MeasuredConfig& r : results) {
        add(r.ways.l2);
        add(r.ways.l1);
        add(r.l1.accesses);
        add(r.l1.hits);
        add(r.l1.refills);
        add(r.l1.prefetch_fills);
        add(r.l1.writebacks);
        add(r.l1.prefetch_unused_evictions);
        add(r.l2.demand_accesses);
        add(r.l2.demand_hits);
        add(r.l2.demand_fills);
        add(r.l2.prefetch_fills);
        add(r.l2.swap_dm);
        add(r.l2.writebacks);
        add(r.l2.prefetch_unused_evictions);
    }
    return fnv1a(bytes);
}

class SweepSim final : public Workload {
public:
    SweepSim(Context& ctx, bool smoke)
        : ctx_(ctx), dir_(ctx.work / "sweep-sim"), grid_(fig2_grid()) {
        inputs_ = {{smoke ? "stencil2d5:48" : "stencil2d5:72", "stencil", {}, {}},
                   {smoke ? "randomcv:2000" : "randomcv:3000", "randomcv", {}, {}}};
        options_.machine = a64fx_default();
        options_.threads = kSimThreads;
    }

    /// Writes each .mtx and warms its .spmvc entry (not timed).
    void make_inputs() override {
        std::filesystem::create_directories(dir_);
        const std::filesystem::path cache = dir_ / "spmvc";
        for (Input& in : inputs_) {
            const CsrMatrix m = generate(in.spec, ctx_.gen_seed());
            const std::filesystem::path path = dir_ / (in.name + ".mtx");
            write_matrix_market_file(path.string(), m);
            in.source.path = path.string();
            in.source.cache_dir = cache.string();
            Result<LoadedMatrix> warm = load_matrix_handle(in.source);
            if (!warm.ok()) throw std::runtime_error(warm.error().render());
            describe_matrix(ctx_, "sweep-sim." + in.name, warm.value().stats);
        }
    }

    void setup() override {
        ScopedSpan span("bench.setup");
        for (Input& in : inputs_) {
            in.loaded = LoadedMatrix{};
            Result<LoadedMatrix> loaded = Error(ErrorCode::InternalError, "unrun");
            {
                ScopedSpan load("sparse.spmvc_load");
                loaded = load_matrix_handle(in.source);
            }
            if (!loaded.ok()) throw std::runtime_error(loaded.error().render());
            ctx_.checks.expect(loaded.value().origin == LoadOrigin::CacheHit,
                               "set-up did not load " + in.name + " from .spmvc");
            in.loaded = std::move(loaded).value();
        }
    }

    /// One operation is one round over both matrices.
    [[nodiscard]] double tail_quantile() const override { return 0.75; }

    OpSamples run(double seconds, std::size_t min_ops) override {
        // One untimed round first: the first sweeps grow the heap.
        for (const Input& in : inputs_) (void)run_sector_sweep(in.loaded.view, grid_, options_);
        OpSamples out;
        const double start = now_s();
        for (std::int64_t round = 0;
             now_s() - start < seconds || out.latencies.size() < min_ops; ++round) {
            Tracer::set_op(round);
            double took = 0.0;
            for (std::size_t i = 0; i < inputs_.size(); ++i) {
                std::vector<MeasuredConfig> results;
                took += time_call("cachesim.sweep", [&] {
                    results = run_sector_sweep(inputs_[i].loaded.view, grid_, options_);
                });
                digests_.emplace_back(i, counters_digest(results));
            }
            out.latencies.push_back(took);
        }
        out.wall_seconds = now_s() - start;
        return out;
    }

    void verify() override {
        for (const auto& [input, digest] : digests_) {
            const std::string key = "sweep-sim/" + inputs_[input].spec + "@" +
                                    std::to_string(ctx_.gen_seed());
            ctx_.checks.expect(ctx_.expected->matches(key, digest),
                               "sweep counters differ from the recorded ones: " + key);
        }
    }

    void summary(const OpSamples& samples, std::map<std::string, double>& out) override {
        out["sweep_s"] = median(samples.latencies);
    }

    void layer_metrics(const std::vector<Span>& spans, Metrics& out) override {
        const double sweep_s = median(per_op_seconds(spans, "cachesim.sweep"));
        double refs = 0.0;
        double one_config_s = 0.0;
        for (const Input& in : inputs_) {
            // Demand references per sweep: warm-up plus measured iteration.
            refs += static_cast<double>(1 + options_.warmup_iterations) *
                    static_cast<double>(spmv_trace_length(in.loaded.view.rows(),
                                                          in.loaded.view.nnz()));
            one_config_s += time_call("cachesim.sweep_1", [&] {
                (void)run_sector_sweep(in.loaded.view, {SectorWays{0, 0}}, options_);
            });
        }
        const double configs = static_cast<double>(grid_.size());
        out.set("cachesim.refs_per_s", refs * configs / trusted(sweep_s, "cachesim.sweep"),
                "1/s");
        out.set("cachesim.s_per_config", (sweep_s - one_config_s) / (configs - 1.0), "s");
        out.set("sparse.spmvc_load_s",
                trusted(median(per_op_seconds(spans, "sparse.spmvc_load", 1)),
                        "sparse.spmvc_load"),
                "s");
    }

private:
    Context& ctx_;
    std::filesystem::path dir_;  ///< this workload's inputs
    std::vector<SectorWays> grid_;
    ExperimentOptions options_;
    std::vector<Input> inputs_;
    std::vector<std::pair<std::size_t, std::uint64_t>> digests_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_sim(Context& ctx, bool smoke) {
    return std::make_unique<SweepSim>(ctx, smoke);
}

}  // namespace perfbench
