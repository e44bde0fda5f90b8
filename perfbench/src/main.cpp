// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--record] [--commit ID] [--expected FILE]
//
// Builds the workload's inputs from --seed, sets the system up several
// times (setup_s is the median), measures operations for --seconds, checks
// every output, and prints as its last line one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run measures half its time untraced and half traced (their
// difference is bench.trace_overhead_pct), then probes the layers the
// workload bypasses by running the other workloads at smoke size, so every
// per-layer metric is measured on every workload. Spans are kept in memory
// and written to .bench_work/ at exit. --record stores the computed output
// digests as the expected values instead of checking them.
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

// The first set-up also pays the once-per-process calibrations; the
// median of at least five, and of as many as fit in kSetupSeconds, is the
// steady set-up cost (set-ups of a few milliseconds need tens to settle).
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 500;
constexpr double kSetupSeconds = 1.0;
constexpr double kProbeSeconds = 0.5;
const char* const kWorkloads[] = {"predict-file", "sweep-sim", "serve-mix", "kernel-spmv"};

std::unique_ptr<Workload> make(const std::string& name, Context& ctx, bool smoke) {
    if (name == "predict-file") return make_predict_file(ctx, smoke);
    if (name == "sweep-sim") return make_sweep_sim(ctx, smoke);
    if (name == "serve-mix") return make_serve_mix(ctx, smoke);
    if (name == "kernel-spmv") return make_kernel_spmv(ctx, smoke);
    return nullptr;
}

/// Removes the scratch input directory on every exit path.
struct ScratchDir {
    std::filesystem::path path;
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload {predict-file|sweep-sim|serve-mix|"
                 "kernel-spmv} --seed N --seconds S --trace 0|1 [--smoke] [--record]\n";
    std::exit(2);
}

std::vector<double> setups(Workload& w) {
    std::vector<double> out;
    const double first = now_s();
    for (int rep = 0; rep < kMaxSetupReps &&
                      (rep < kSetupReps || now_s() - first < kSetupSeconds);
         ++rep) {
        Tracer::set_op(-1 - rep);
        const double start = now_s();
        w.setup();
        out.push_back(now_s() - start);
    }
    return out;
}

void print_summary(const std::string& name, Workload& w, const OpSamples& s) {
    std::map<std::string, double> figures;
    w.summary(s, figures);
    std::cout << "# " << name << ":";
    for (const auto& [key, value] : figures) std::cout << " " << key << "=" << value;
    std::cout << " (" << s.latencies.size() << " ops)\n";
}

void run_untraced(Context& ctx, Workload& w, Metrics& m) {
    const std::vector<double> setup = setups(w);
    const OpSamples s = w.run(ctx.options.seconds, min_ops(w.tail_quantile()));
    // The high-water mark of set-up and operations, before the checks.
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    w.verify();
    const Tail t = tail(s.latencies, w.tail_quantile());
    m.set("setup_s", trusted(median(setup), "set-up"), "s");
    m.set("op_p50_ms", 1e3 * trusted(median(s.latencies), "operation"), "ms");
    m.set("op_tail_ms", 1e3 * trusted(t.value, "operation tail"), "ms");
    // Closed-loop throughput over the time the clients were busy: waits at
    // the serve clients' shared-key rendezvous are not the system's.
    double busy = 0.0;
    for (const double l : s.latencies) busy += l;
    m.set("ops_per_s",
          static_cast<double>(s.concurrency) * static_cast<double>(s.latencies.size()) / busy,
          "1/s");
    ctx.record.set("ops", static_cast<double>(s.latencies.size()));
    ctx.record.set("setup_reps", static_cast<double>(setup.size()));
    ctx.record.set("op_tail_percentile", t.label);
    print_summary(ctx.options.workload, w, s);
}

void run_traced(Context& ctx, Workload& w, Metrics& m) {
    Tracer& tracer = Tracer::get();
    tracer.enable(true);
    (void)setups(w);
    tracer.enable(false);
    const OpSamples plain = w.run(ctx.options.seconds / 2, 1);
    tracer.enable(true);
    const OpSamples traced = w.run(ctx.options.seconds / 2, 1);
    tracer.enable(false);
    const std::vector<Span> spans = tracer.take();
    w.verify();
    tracer.enable(true);
    w.layer_metrics(spans, m);
    tracer.archive(ctx.options.workload, spans);
    tracer.archive(ctx.options.workload + ":probes", tracer.take());
    const double base = median(plain.latencies);
    m.set("bench.trace_overhead_pct", 100.0 * (median(traced.latencies) - base) / base, "%");
    print_summary(ctx.options.workload, w, traced);

    // The other workloads at smoke size measure the layers this one
    // bypasses; this workload's own figures take precedence.
    for (const char* other : kWorkloads) {
        if (ctx.options.workload == other) continue;
        std::unique_ptr<Workload> probe = make(other, ctx, true);
        probe->make_inputs();
        (void)setups(*probe);
        (void)probe->run(kProbeSeconds, 1);
        const std::vector<Span> probe_spans = tracer.take();
        probe->verify();
        Metrics probed;
        probe->layer_metrics(probe_spans, probed);
        for (const auto& [name, metric] : probed.all())
            if (m.all().count(name) == 0) m.set(name, metric.value, metric.unit);
        tracer.archive(std::string("probe:") + other, probe_spans);
        (void)tracer.take();
    }
    tracer.enable(false);
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string commit = "unknown";
    std::string expected = "perfbench/expected.txt";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") opt.workload = value();
            else if (arg == "--seed") { opt.seed = std::stoull(value()); have_seed = true; }
            else if (arg == "--seconds") { opt.seconds = std::stod(value()); have_seconds = true; }
            else if (arg == "--trace") { opt.traced = value() == "1"; have_trace = true; }
            else if (arg == "--smoke") opt.smoke = true;
            else if (arg == "--record") opt.record = true;
            else if (arg == "--commit") commit = value();
            else if (arg == "--expected") expected = value();
            else usage("unknown argument " + arg);
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || !(opt.seconds > 0.0))
        usage("--seed, --seconds (> 0) and --trace are required");
    opt.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

    Context ctx;
    ctx.options = opt;
    const std::filesystem::path scratch_root = std::filesystem::absolute(".bench_work");
    ScratchDir scratch{scratch_root / (opt.workload + "-" + std::to_string(::getpid()))};
    ctx.work = scratch.path;
    ctx.expected = std::make_unique<Expected>(expected, opt.record);

    Metrics metrics;
    try {
        std::unique_ptr<Workload> w = make(opt.workload, ctx, opt.smoke);
        if (!w) usage("unknown workload '" + opt.workload + "'");
        std::filesystem::create_directories(ctx.work);
        ctx.record.set("workload", opt.workload);
        ctx.record.set("seed", static_cast<double>(opt.seed));
        ctx.record.set("matrix_instance", static_cast<double>(ctx.gen_seed()));
        ctx.record.set("seconds", opt.seconds);
        ctx.record.set("traced", opt.traced ? "yes" : "no");
        ctx.record.set("smoke", opt.smoke ? "yes" : "no");
        ctx.record.set("commit", commit);
        ctx.record.set("build_type", PERFBENCH_BUILD_TYPE);
        ctx.record.set("nproc", static_cast<double>(opt.nproc));
        ctx.record.set("llc_bytes", static_cast<double>(llc_bytes()));
        ctx.record.set("clock_resolution_s", clock_floor().resolution_s);
        ctx.record.set("clock_floor_s", clock_floor().floor_s);

        w->make_inputs();
        if (opt.traced) run_traced(ctx, *w, metrics);
        else run_untraced(ctx, *w, metrics);
        if (opt.record) ctx.expected->save();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    if (opt.traced)
        Tracer::get().write_jsonl(scratch_root / ("spans-" + opt.workload + "-seed" +
                                                  std::to_string(opt.seed) + ".jsonl"));

    std::cout << "{\"run_record\":" << ctx.record.json() << "}\n";
    const std::int64_t attempted = ctx.checks.attempted();
    const std::int64_t failed = ctx.checks.failed();
    std::cout << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics.all()) {
        std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
                  << json_number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return failed == 0 && attempted > 0 ? 0 : 1;
}
