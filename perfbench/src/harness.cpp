#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

thread_local std::vector<std::int64_t> t_stack;
thread_local std::int64_t t_op = -1;

}  // namespace

double now_s() {
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

const ClockFloor& clock_floor() {
    static const ClockFloor floor = [] {
        // The smallest non-zero step between two consecutive reads.
        Clock::duration best = Clock::duration::max();
        for (int i = 0; i < 200000; ++i) {
            const auto a = Clock::now();
            auto b = Clock::now();
            while (b == a) b = Clock::now();
            best = std::min(best, b - a);
        }
        ClockFloor f;
        f.resolution_s = std::chrono::duration<double>(best).count();
        f.floor_s = kFloorMultiple * f.resolution_s;
        return f;
    }();
    return floor;
}

double trusted(double seconds, const char* what) {
    if (!(seconds >= clock_floor().floor_s))
        throw std::runtime_error(std::string("timing of ") + what + " (" +
                                 json_number(seconds) +
                                 " s) is below the clock floor");
    return seconds;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::runtime_error("quantile of no samples");
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

Tail tail(const std::vector<double>& v, double q) {
    if (q >= 1.0) return {*std::max_element(v.begin(), v.end()), "max"};
    if (v.size() < min_ops(q))
        throw std::runtime_error("too few samples for the tail percentile");
    std::string label = "p";
    label += json_number(100.0 * q);
    return {quantile(v, q), label};
}

std::size_t min_ops(double q) {
    return q >= 1.0 ? 1 : static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

// ---- tracing -------------------------------------------------------------

Tracer& Tracer::get() {
    static Tracer tracer;
    return tracer;
}

void Tracer::set_op(std::int64_t op) { t_op = op; }

std::int64_t Tracer::begin(const char* name) {
    if (!enabled()) return -1;
    Span span;
    span.name = name;
    span.parent = t_stack.empty() ? -1 : t_stack.back();
    span.op = t_op;
    std::int64_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<std::int64_t>(spans_.size());
        spans_.push_back(span);
    }
    t_stack.push_back(id);
    // Start last, so the bookkeeping above is not inside the span.
    const double start = now_s();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].start = start;
    return id;
}

void Tracer::end(std::int64_t id, double count) {
    if (id < 0) return;
    const double end = now_s();
    if (!t_stack.empty()) t_stack.pop_back();
    const std::lock_guard<std::mutex> lock(mutex_);
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = end;
    span.count = count;
}

std::vector<Span> Tracer::take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

void Tracer::archive(const std::string& phase,
                     const std::vector<Span>& spans) {
    const std::lock_guard<std::mutex> lock(mutex_);
    archived_.emplace_back(phase, spans);
}

void Tracer::write_jsonl(const std::filesystem::path& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    for (const auto& [phase, spans] : archived_) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            out << "{\"phase\":" << spmvcache::json_quote(phase) << ",\"id\":" << i
                << ",\"name\":" << spmvcache::json_quote(s.name)
                << ",\"start\":" << json_number(s.start)
                << ",\"end\":" << json_number(s.end)
                << ",\"parent\":" << s.parent << ",\"op\":" << s.op
                << ",\"count\":" << json_number(s.count) << "}\n";
        }
    }
}

ScopedSpan::ScopedSpan(const char* name) : id_(Tracer::get().begin(name)) {}

ScopedSpan::~ScopedSpan() { Tracer::get().end(id_, count_); }

SpanSum span_sum(const std::vector<Span>& spans, const std::string& name) {
    SpanSum out;
    for (const Span& s : spans) {
        if (name != s.name) continue;
        out.seconds += s.seconds();
        out.count += s.count;
    }
    return out;
}

std::vector<double> per_op_seconds(const std::vector<Span>& spans,
                                   const std::string& name,
                                   std::int64_t ops_per_group) {
    std::map<std::int64_t, double> by_op;
    for (const Span& s : spans)
        if (name == s.name) by_op[s.op / ops_per_group] += s.seconds();
    std::vector<double> out;
    for (const auto& [op, seconds] : by_op) out.push_back(seconds);
    return out;
}

double unattributed_pct(const std::vector<Span>& spans,
                        const std::string& root) {
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0)
            child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    std::vector<double> shares;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (root != spans[i].name || spans[i].seconds() <= 0.0) continue;
        shares.push_back(100.0 * (spans[i].seconds() - child_seconds[i]) /
                         spans[i].seconds());
    }
    return median(shares);
}

// ---- metrics and checks --------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    metrics_[name] = Metric{value, unit};
}

void Checks::expect(bool ok, const std::string& why) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (reported_++ < 20) std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
}

std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

Expected::Expected(std::filesystem::path path, bool record)
    : path_(std::move(path)), record_(record) {
    std::ifstream in(path_);
    std::string key;
    std::string hex;
    while (in >> key >> hex) values_[key] = std::stoull(hex, nullptr, 16);
}

bool Expected::matches(const std::string& key, std::uint64_t digest) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (record_) {
        values_[key] = digest;
        return true;
    }
    const auto it = values_.find(key);
    if (it == values_.end()) {
        std::cerr << "perfbench: no expected value recorded for " << key
                  << "\n";
        return false;
    }
    return it->second == digest;
}

void Expected::save() const {
    std::ofstream out(path_);
    out << std::hex;
    for (const auto& [key, value] : values_) out << key << " " << value << "\n";
}

void RunRecord::set(const std::string& key, const std::string& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fields_[key] = spmvcache::json_quote(value);
}

void RunRecord::set(const std::string& key, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    fields_[key] = json_number(value);
}

std::string RunRecord::json() const {
    std::string out = "{";
    for (const auto& [key, value] : fields_) {
        if (out.size() > 1) out += ",";
        out += spmvcache::json_quote(key) + ":" + value;
    }
    return out + "}";
}

std::string json_number(double value) {
    return std::isfinite(value) ? spmvcache::json_double(value) : "null";
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t llc_bytes() {
    for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
        const long v = sysconf(name);
        if (v > 0) return static_cast<std::uint64_t>(v);
    }
    return 0;
}

}  // namespace perfbench
