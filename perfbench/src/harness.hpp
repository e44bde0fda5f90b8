// Measurement plumbing shared by the four workloads: the steady-clock
// timer discipline, sample statistics, the in-memory span tracer, the
// metric sink, output checks against recorded expected values, and the
// run record that says which host, build and decisions produced a result.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- clock ---------------------------------------------------------------

/// Seconds on the steady clock since the process started.
[[nodiscard]] double now_s();

/// The steady clock's measured resolution and the shortest single timing
/// the benchmark trusts: kFloorMultiple resolutions, after hpides'
/// get_steady_clock_min_duration. Measured once, at first use.
struct ClockFloor {
    double resolution_s = 0.0;
    double floor_s = 0.0;
};
inline constexpr double kFloorMultiple = 100.0;
[[nodiscard]] const ClockFloor& clock_floor();

/// Throws when `seconds` is shorter than the clock floor: a timing that
/// short is resolution noise and must be batched, never reported.
double trusted(double seconds, const char* what);

// ---- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// A workload's tail: the percentile q it is designed to have at least ten
/// samples beyond (run() goes on until min_ops(q) operations are done), so
/// every run reports the same percentile; q = 1 is the maximum, for a
/// workload whose operations are too long for any percentile.
struct Tail {
    double value = 0.0;
    std::string label;
};
[[nodiscard]] Tail tail(const std::vector<double>& v, double q);
[[nodiscard]] std::size_t min_ops(double q);

// ---- tracing -------------------------------------------------------------

/// One layer call: name, steady-clock start/end, the enclosing span
/// (-1 at top level), the operation it belongs to, and an optional count
/// of work done inside it (references, bytes, ...).
struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::int64_t op = -1;
    double count = 0.0;

    [[nodiscard]] double seconds() const noexcept { return end - start; }
};

/// Process-wide span store. Spans are kept in memory and written out
/// once, at exit; when tracing is off, ScopedSpan costs one relaxed load.
class Tracer {
public:
    static Tracer& get();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    std::int64_t begin(const char* name);
    void end(std::int64_t id, double count);

    /// Operation id new top-level spans on this thread are tagged with.
    static void set_op(std::int64_t op);

    /// Moves the recorded spans out (the store starts empty again).
    [[nodiscard]] std::vector<Span> take();
    /// Appends `spans` under `phase` to the span log written at exit.
    void archive(const std::string& phase, const std::vector<Span>& spans);
    void write_jsonl(const std::filesystem::path& path) const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::string, std::vector<Span>>> archived_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_count(double count) { count_ = count; }

private:
    std::int64_t id_ = -1;
    double count_ = 0.0;
};

/// Summed durations and work counts of every span called `name`.
struct SpanSum {
    double seconds = 0.0;
    double count = 0.0;
};
[[nodiscard]] SpanSum span_sum(const std::vector<Span>& spans, const std::string& name);

/// Durations of every span called `name`, grouped by operation id /
/// `ops_per_group` and summed within each group.
[[nodiscard]] std::vector<double> per_op_seconds(
    const std::vector<Span>& spans, const std::string& name,
    std::int64_t ops_per_group = 1);

/// Times one call from the benchmark's side (a span when tracing is on).
template <class F>
double time_call(const char* span_name, F&& call) {
    const ScopedSpan span(span_name);
    const double start = now_s();
    call();
    return now_s() - start;
}

/// Median over top-level spans named `root` of the share (percent) of
/// each span not covered by its direct children.
[[nodiscard]] double unattributed_pct(const std::vector<Span>& spans,
                                      const std::string& root);

// ---- metrics and checks --------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::map<std::string, Metric>& all() const {
        return metrics_;
    }

private:
    std::map<std::string, Metric> metrics_;
};

/// Checks attempted and failed; a failure also reports why.
class Checks {
public:
    /// Counts one attempted check and fails it unless `ok`.
    void expect(bool ok, const std::string& why);

    [[nodiscard]] std::int64_t attempted() const { return attempted_.load(); }
    [[nodiscard]] std::int64_t failed() const { return failed_.load(); }

private:
    std::atomic<std::int64_t> attempted_{0};
    std::atomic<std::int64_t> failed_{0};
    std::mutex mutex_;
    int reported_ = 0;
};

/// 64-bit FNV-1a digest of a byte string.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes);

/// Expected output digests recorded once from the seed commit
/// (perfbench/expected.txt, one `key hex-digest` per line). In record
/// mode lookups store what was computed instead of comparing.
class Expected {
public:
    Expected(std::filesystem::path path, bool record);
    /// True when `digest` matches the stored value for `key`.
    bool matches(const std::string& key, std::uint64_t digest);
    void save() const;

private:
    std::filesystem::path path_;
    bool record_ = false;
    std::mutex mutex_;
    std::map<std::string, std::uint64_t> values_;
};

/// Key/value facts about the run (host, build, decisions), printed as one
/// JSON object so results from different hosts or builds are never
/// compared by accident.
class RunRecord {
public:
    void set(const std::string& key, const std::string& value);
    void set(const std::string& key, double value);
    [[nodiscard]] std::string json() const;

private:
    std::mutex mutex_;
    std::map<std::string, std::string> fields_;  ///< rendered JSON values
};

[[nodiscard]] std::string json_number(double value);
[[nodiscard]] double peak_rss_mib();
/// Bytes of the last-level cache the host reports (0 when unknown).
[[nodiscard]] std::uint64_t llc_bytes();

// ---- workloads -----------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    bool smoke = false;
    bool record = false;
    int nproc = 1;
};

/// Randomised generator families are instantiated from `seed % kInstances`
/// so every matrix the benchmark can build has recorded expected outputs.
inline constexpr std::uint64_t kInstances = 4;

struct Context {
    Options options;
    std::filesystem::path work;  ///< scratch inputs, removed at exit
    Checks checks;
    std::unique_ptr<Expected> expected;
    RunRecord record;

    [[nodiscard]] std::uint64_t gen_seed() const {
        return 1000 + options.seed % kInstances;
    }
};

/// Latencies of the operations one run() performed, its wall time, and
/// how many operations were in flight at once (closed-loop clients).
struct OpSamples {
    std::vector<double> latencies;
    double wall_seconds = 0.0;
    int concurrency = 1;
};

/// One benchmark workload. The driver calls make_inputs once, setup
/// several times (the median is setup_s), run for the measured seconds,
/// then verify; a traced run also asks for the per-layer metrics.
class Workload {
public:
    virtual ~Workload() = default;
    virtual void make_inputs() = 0;
    virtual void setup() = 0;
    /// Runs operations for `seconds`, and on until `min_ops` are done.
    virtual OpSamples run(double seconds, std::size_t min_ops) = 0;
    /// The tail percentile this workload reports (see Tail).
    [[nodiscard]] virtual double tail_quantile() const = 0;
    virtual void verify() = 0;
    /// Per-layer metrics from the traced run's spans plus direct layer
    /// probes on this workload's loaded matrices.
    virtual void layer_metrics(const std::vector<Span>& spans,
                               Metrics& out) = 0;
    /// The workload's own named figures for the human-readable summary.
    virtual void summary(const OpSamples& samples,
                         std::map<std::string, double>& out) = 0;
};

std::unique_ptr<Workload> make_predict_file(Context& ctx, bool smoke);
std::unique_ptr<Workload> make_sweep_sim(Context& ctx, bool smoke);
std::unique_ptr<Workload> make_serve_mix(Context& ctx, bool smoke);
std::unique_ptr<Workload> make_kernel_spmv(Context& ctx, bool smoke);

}  // namespace perfbench
