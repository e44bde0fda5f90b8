// kernel-spmv: timed y += A·x blocks of AnyKernelEngine::run_iterations
// with the `auto` variant on nproc worker threads, at W32 (what auto
// resolves to) plus W64 legs of the same matrices. Set-up maps each
// matrix from its .spmvc entry and builds the engines, which copies the
// arrays first-touch and calibrates the prefetch distance. Nothing from
// model, trace, reuse or serve runs here.
#include <memory>
#include <optional>

#include "inputs.hpp"
#include "kernels/engine.hpp"
#include "kernels/spmv.hpp"
#include "sparse/binary_cache.hpp"
#include "sparse/fingerprint.hpp"
#include "sync/worker_team.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using namespace spmvcache;

/// Flops per timed block: large enough that one block is far above the
/// clock floor and averages over many team dispatches.
constexpr double kBlockFlops = 2e8;

constexpr KernelVariant kVariants[] = {
    KernelVariant::CsrScalar, KernelVariant::CsrPrefetch, KernelVariant::CsrSimd,
    KernelVariant::SellScalar, KernelVariant::SellSimd, KernelVariant::CsrMerge,
};

struct Input {
    std::string spec;
    std::string name;
    std::filesystem::path spmvc;
    std::unique_ptr<MappedCsr> mapped;
    std::optional<CsrMatrix64> wide;  ///< the W64 copy for the W64 legs
};

/// One timed leg: an engine over one matrix at one width.
struct Leg {
    std::size_t input = 0;
    AnyCsrView view;
    std::unique_ptr<AnyKernelEngine> engine;
    std::int64_t iterations = 1;
    std::vector<double> y;
};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform() * 2.0 - 1.0;
    return v;
}

/// Bytes one iteration must move at minimum: values and colidx streams,
/// rowptr, one read of x and a read-modify-write of y.
double computed_bytes(const AnyCsrView& v) {
    return static_cast<double>(v.values_bytes() + v.colidx_bytes() + v.rowptr_bytes() +
                               v.x_bytes()) +
           2.0 * static_cast<double>(v.y_bytes());
}

class KernelSpmv final : public Workload {
public:
    KernelSpmv(Context& ctx, bool smoke)
        : ctx_(ctx), dir_(ctx.work / "kernel-spmv") {
        // ~7 MB of arrays per W32 leg, within the cores' private L2s
        // (4 x 2 MiB here): legs sized past the shared last-level cache
        // moved 23-41% between runs on a shared host, beyond any bound.
        inputs_.push_back({smoke ? "stencil2d5:120" : "stencil2d5:300", "stencil", {}, {}, {}});
        inputs_.push_back({smoke ? "randomcv:12000" : "randomcv:60000", "randomcv", {}, {}, {}});
        threads_ = ctx.options.nproc;
    }

    void make_inputs() override {
        std::filesystem::create_directories(dir_);
        double values_bytes = 0.0;
        for (Input& in : inputs_) {
            const CsrMatrix m = generate(in.spec, ctx_.gen_seed());
            in.spmvc = dir_ / (in.name + ".spmvc");
            const MatrixStats stats = compute_stats(m);
            const Status written =
                write_binary_cache(in.spmvc.string(), m, fingerprint_matrix(m), stats,
                                   "generated://" + in.spec, SourceStamp{});
            if (!written.ok()) throw std::runtime_error(written.error().render());
            describe_matrix(ctx_, "kernel-spmv." + in.name, stats);
            ctx_.record.set("kernel-spmv." + in.name + ".values_bytes",
                            static_cast<double>(m.nnz()) * 8.0);
            values_bytes = std::max(values_bytes, static_cast<double>(m.nnz()) * 8.0);
        }
        ctx_.record.set("kernel-spmv.max_values_bytes", values_bytes);
    }

    void setup() override {
        ScopedSpan span("bench.setup");
        legs_.clear();
        for (Input& in : inputs_) {
            in.mapped.reset();
            in.wide.reset();
            Result<MappedCsr> mapped = Error(ErrorCode::InternalError, "unrun");
            {
                ScopedSpan load("sparse.spmvc_load");
                mapped = load_binary_cache(in.spmvc.string());
            }
            if (!mapped.ok()) throw std::runtime_error(mapped.error().render());
            in.mapped = std::make_unique<MappedCsr>(std::move(mapped).value());
            in.wide = convert_csr_width<Idx64>(*in.mapped->view().as32());
        }
        while (x_.size() < inputs_.size())
            x_.push_back(random_vector(
                static_cast<std::size_t>(inputs_[x_.size()].mapped->view().cols()),
                ctx_.options.seed * 31 + x_.size()));
        for (const bool wide : {false, true})
            for (std::size_t i = 0; i < inputs_.size(); ++i) {
                Leg leg;
                leg.input = i;
                leg.view = wide ? AnyCsrView(*inputs_[i].wide) : inputs_[i].mapped->view();
                {
                    ScopedSpan build(wide ? "kernels.engine_setup_w64" : "kernels.engine_setup");
                    leg.engine = std::make_unique<AnyKernelEngine>(leg.view, engine_options());
                }
                leg.iterations = std::max<std::int64_t>(
                    1, static_cast<std::int64_t>(kBlockFlops / flops_per_iteration(leg.view)));
                leg.y.assign(static_cast<std::size_t>(leg.view.rows()), 0.0);
                leg.engine->run_iterations(x_[i], leg.y, 1);  // warm-up
                legs_.push_back(std::move(leg));
            }
    }

    [[nodiscard]] double tail_quantile() const override { return 0.75; }

    OpSamples run(double seconds, std::size_t min_ops) override {
        OpSamples out;
        last_.assign(legs_.size(), {});
        const double start = now_s();
        std::int64_t op = 0;
        do {
            double round = 0.0;
            for (std::size_t l = 0; l < legs_.size(); ++l) {
                Leg& leg = legs_[l];
                Tracer::set_op(op++);
                const double s = time_call("kernels.run_iterations", [&] {
                    leg.engine->run_iterations(x_[leg.input], leg.y, leg.iterations);
                });
                last_[l].push_back(s);
                round += s;
            }
            out.latencies.push_back(round);
        } while (now_s() - start < seconds || out.latencies.size() < min_ops);
        out.wall_seconds = now_s() - start;
        return out;
    }

    /// Every leg's engine against the sequential spmv_csr, to the fma
    /// tolerance the kernel benches use.
    void verify() override {
        for (const Leg& leg : legs_) {
            ctx_.checks.expect(matches_reference(leg.view, *leg.engine, leg.input),
                               std::string("kernel y differs from spmv_csr: ") +
                                   inputs_[leg.input].name);
        }
        const EngineInfo& info = legs_.front().engine->info();
        ctx_.record.set("decision.kernel_variant", to_string(info.variant));
        ctx_.record.set("decision.kernel_isa", simd::to_string(info.isa));
        ctx_.record.set("decision.kernel_prefetch_distance",
                        static_cast<double>(info.prefetch_distance));
        ctx_.record.set("decision.kernel_threads", static_cast<double>(info.threads));
        ctx_.record.set("decision.kernel_first_touch", info.first_touch ? "on" : "off");
        for (const Leg& leg : legs_)
            ctx_.record.set("decision.kernel_variant." + inputs_[leg.input].name + "." +
                                spmvcache::to_string(leg.view.index_width()),
                            to_string(leg.engine->info().variant));
    }

    void summary(const OpSamples&, std::map<std::string, double>& out) override {
        out["kernel_gflops"] = auto_gflops(false);
        out["kernel_gflops_w64"] = auto_gflops(true);
    }

    void layer_metrics(const std::vector<Span>& spans, Metrics& out) override {
        for (const bool wide : {false, true})
            for (const KernelVariant v : kVariants)
                out.set(std::string("kernels.") + to_string(v) + "_gflops" + (wide ? "_w64" : ""),
                        variant_gflops(v, wide), "GFLOP/s");

        double flops = 0.0;
        double serial_s = 0.0;
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            const AnyCsrView view = inputs_[i].mapped->view();
            std::vector<double> y(static_cast<std::size_t>(view.rows()), 0.0);
            const std::int64_t iters = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(kBlockFlops / 4 / flops_per_iteration(view)));
            serial_s += time_call("kernels.spmv_csr", [&] {
                for (std::int64_t k = 0; k < iters; ++k) spmv_csr(*view.as32(), x_[i], y);
            });
            flops += flops_per_iteration(view) * static_cast<double>(iters);
        }
        out.set("kernels.serial_gflops", flops / trusted(serial_s, "spmv_csr") / 1e9, "GFLOP/s");
        out.set("kernels.engine_setup_s",
                trusted(median(per_op_seconds(spans, "kernels.engine_setup", 1)),
                        "engine set-up"),
                "s");
        out.set("sparse.spmvc_load_s",
                trusted(median(per_op_seconds(spans, "sparse.spmvc_load", 1)), "spmvc load"),
                "s");

        const double triad = triad_gbs();
        double bytes = 0.0;
        double auto_flops = 0.0;
        for (const Leg& leg : legs_) {
            if (leg.view.index_width() != IndexWidth::W32) continue;
            bytes += computed_bytes(leg.view);
            auto_flops += flops_per_iteration(leg.view);
        }
        const double bytes_per_flop = bytes / auto_flops;
        out.set("kernels.triad_gbs", triad, "GB/s");
        out.set("kernels.bytes_per_flop_computed", bytes_per_flop, "B/flop");
        out.set("kernels.roof_fraction", auto_gflops(false) * bytes_per_flop / triad, "ratio");
        out.set("sync.team_dispatch_us", team_dispatch_us(), "us");
        ctx_.record.set("kernel-spmv.triad_gbs", triad);
    }

private:
    EngineOptions engine_options(KernelVariant v = KernelVariant::Auto) const {
        EngineOptions o;
        o.threads = threads_;
        o.variant = v;
        return o;
    }

    static double flops_per_iteration(const AnyCsrView& v) {
        return 2.0 * static_cast<double>(v.nnz());
    }

    /// GFLOP/s of the auto legs at one width over the last run, from the
    /// median block time of each leg.
    double auto_gflops(bool wide) const {
        double flops = 0.0;
        double seconds = 0.0;
        for (std::size_t l = 0; l < legs_.size(); ++l) {
            if ((legs_[l].view.index_width() == IndexWidth::W64) != wide) continue;
            flops += flops_per_iteration(legs_[l].view) *
                     static_cast<double>(legs_[l].iterations);
            seconds += median(last_[l]);
        }
        return flops / trusted(seconds, "kernel block") / 1e9;
    }

    bool matches_reference(const AnyCsrView& view, AnyKernelEngine& engine,
                           std::size_t input) const {
        const std::vector<double>& x = x_[input];
        const std::vector<double> y0 =
            random_vector(static_cast<std::size_t>(view.rows()), ctx_.options.seed + 11);
        std::vector<double> want = y0;
        view.visit([&](const auto& v) { spmv_csr(v, x, want); });
        std::vector<double> got = y0;
        engine.run(x, got);
        for (std::size_t r = 0; r < want.size(); ++r) {
            const double denom = std::max(std::abs(want[r]), 1.0);
            if (!(std::abs(got[r] - want[r]) / denom <= 1e-10)) return false;
        }
        return true;
    }

    /// One variant at one width over both matrices: engine built, checked
    /// against spmv_csr, then the median of three timed blocks.
    double variant_gflops(KernelVariant v, bool wide) {
        double flops = 0.0;
        double seconds = 0.0;
        for (const Leg& auto_leg : legs_) {
            if ((auto_leg.view.index_width() == IndexWidth::W64) != wide) continue;
            AnyKernelEngine engine(auto_leg.view, engine_options(v));
            ctx_.checks.expect(matches_reference(auto_leg.view, engine, auto_leg.input),
                               std::string("kernel variant differs from spmv_csr: ") +
                                   to_string(v));
            std::vector<double> y(static_cast<std::size_t>(auto_leg.view.rows()), 0.0);
            engine.run_iterations(x_[auto_leg.input], y, 1);
            std::vector<double> blocks;
            for (int b = 0; b < 3; ++b)
                blocks.push_back(time_call("kernels.variant_block", [&] {
                    engine.run_iterations(x_[auto_leg.input], y, auto_leg.iterations);
                }));
            flops += flops_per_iteration(auto_leg.view) *
                     static_cast<double>(auto_leg.iterations);
            seconds += median(blocks);
        }
        return flops / trusted(seconds, "variant block") / 1e9;
    }

    /// STREAM triad a = b + s·c on a WorkerTeam of the engine's size,
    /// arrays as large as the biggest values array; GB/s of the best rep.
    double triad_gbs() const {
        const std::size_t n = std::max<std::size_t>(
            std::size_t{1} << 20,
            static_cast<std::size_t>(inputs_.front().mapped->view().nnz()));
        std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
        WorkerTeam team(static_cast<std::size_t>(threads_));
        const std::size_t slice = (n + team.size() - 1) / team.size();
        const auto triad = [&](std::size_t t) {
            const std::size_t lo = std::min(t * slice, n);
            const std::size_t hi = std::min(lo + slice, n);
            for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
        };
        team.run(triad);  // first touch by the owning workers
        double best = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            const double s = time_call("kernels.triad", [&] { team.run(triad); });
            best = std::max(best, 24.0 * static_cast<double>(n) / trusted(s, "triad") / 1e9);
        }
        return best;
    }

    /// Round trip of an empty WorkerTeam::run, batched above the floor.
    double team_dispatch_us() const {
        WorkerTeam team(static_cast<std::size_t>(threads_));
        constexpr int kRounds = 2000;
        const auto empty = [](std::size_t) {};
        team.run(empty);
        const double s = time_call("sync.team_dispatch", [&] {
            for (int r = 0; r < kRounds; ++r) team.run(empty);
        });
        return 1e6 * trusted(s, "team dispatch") / kRounds;
    }

    Context& ctx_;
    std::filesystem::path dir_;  ///< this workload's inputs
    std::vector<Input> inputs_;
    std::vector<Leg> legs_;
    std::vector<std::vector<double>> x_;  ///< x per input, seeded
    std::vector<std::vector<double>> last_;
    std::int64_t threads_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_kernel_spmv(Context& ctx, bool smoke) {
    return std::make_unique<KernelSpmv>(ctx, smoke);
}

}  // namespace perfbench
