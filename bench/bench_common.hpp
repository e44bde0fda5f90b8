// Shared plumbing for the bench harnesses: common CLI options, suite
// construction (synthetic by default, --mm <dir> for real SuiteSparse
// files), and output helpers. Every harness prints the rows of its paper
// artifact; --csv dumps the raw per-matrix data for external plotting,
// and a harness that records a perf point writes it through BenchRecord.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/spmvcache.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace spmvcache::bench {

/// Options common to all harnesses.
struct CommonOptions {
    std::int64_t count = 12;     ///< matrices in the synthetic suite
    double scale = 0.5;          ///< dimension multiplier for the suite
    std::int64_t threads = 48;   ///< simulated threads
    std::uint64_t seed = 42;
    std::string mm_dir;          ///< directory of .mtx files (optional)
    std::string csv_path;        ///< raw data dump (optional)
    std::int64_t host_threads = 1;
};

inline CommonOptions parse_common(const CliParser& cli,
                                  std::int64_t default_count,
                                  double default_scale) {
    CommonOptions o;
    o.count = cli.get_int("count", default_count);
    o.scale = cli.get_double("scale", default_scale);
    o.threads = cli.get_int("threads", 48);
    o.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    o.mm_dir = cli.get("mm", "");
    o.csv_path = cli.get("csv", "");
    o.host_threads = cli.get_int("host-threads", 1);
    return o;
}

/// The flags parse_common reads, for the harnesses that use all of them.
inline constexpr std::string_view kCommonFlags[] = {
    "count", "scale", "threads", "seed", "mm", "csv", "host-threads"};

/// Reads the command line of the harness `name`, which takes the flags
/// `own`, and kCommonFlags too when `common` is set. Prints the flags it
/// takes; any other --flag is a usage error (exit 2) naming it, so a
/// misspelt or unused flag never silently runs with a default.
inline CliParser parse_cli(int argc, char** argv, std::string_view name,
                           std::vector<std::string_view> own,
                           bool common = false) {
    if (common)
        own.insert(own.begin(), std::begin(kCommonFlags),
                   std::end(kCommonFlags));
    CliParser cli(argc, argv);
    std::cout << "# " << name;
    for (const std::string_view flag : own) std::cout << " [--" << flag << "]";
    std::cout << "\n";
    if (const Status s = cli.expect_only(own, name); !s.ok()) {
        std::cerr << "error: " << s.error().render() << "\n";
        std::exit(kExitUsage);
    }
    return cli;
}

/// The commit of the source checkout the harness was built from, with
/// "-dirty" when tracked files differ from it; "unknown" outside git.
inline std::string source_commit() {
    const auto run = [](const std::string& command) {
        std::string out;
        FILE* pipe = ::popen(command.c_str(), "r");
        if (pipe == nullptr) return std::string();
        char buf[128];
        while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
        if (::pclose(pipe) != 0) return std::string();
        while (!out.empty() && out.back() == '\n') out.pop_back();
        return out;
    };
    const std::string git =
        std::string("git -C '") + SPMV_BENCH_SOURCE_DIR + "' ";
    const std::string head = run(git + "rev-parse HEAD 2>/dev/null");
    if (head.empty()) return "unknown";
    const bool dirty =
        !run(git + "status --porcelain --untracked-files=no 2>/dev/null")
             .empty();
    return dirty ? head + "-dirty" : head;
}

/// One run of a harness, in the one schema every BENCH_*.json has:
///
///   {"bench", "commit", "host_cores", "build_type", "smoke",
///    "params": {name: number or string, ...},
///    "metrics": [{"name", "unit", "value", "reps"}, ...]}
///
/// `params` are the sizes, counts, rates and ISA the run used; `metrics`
/// what it measured. Integral params are written as integers, every
/// other number at shortest round trip. A harness writes its record only
/// after every check of the run passed.
class BenchRecord {
public:
    BenchRecord(std::string bench, bool smoke)
        : bench_(std::move(bench)), smoke_(smoke) {}

    template <class Number>
        requires std::is_arithmetic_v<Number>
    void param(const std::string& name, Number value) {
        if constexpr (std::is_integral_v<Number>)
            params_.emplace_back(name, std::to_string(value));
        else
            params_.emplace_back(name, json_double(static_cast<double>(value)));
    }
    void param(const std::string& name, const std::string& value) {
        params_.emplace_back(name, json_quote(value));
    }

    /// `reps` counts the repetitions of the timed operation that `value`
    /// comes from: the iterations, requests or references a rate or mean
    /// is taken over, or the N of a best of N.
    void metric(std::string name, std::string unit, double value,
                std::int64_t reps = 1) {
        metrics_.push_back({std::move(name), std::move(unit), value, reps});
    }

    /// Writes the record to `path`; false, with a message, when it cannot.
    [[nodiscard]] bool write(const std::string& path) const {
        // Asked before `path` is truncated: a record written over its own
        // tracked copy must not make the tree it names look dirty.
        const std::string commit = source_commit();
        std::ofstream out(path);
        out << "{\"bench\": " << json_quote(bench_)
            << ", \"commit\": " << json_quote(commit)
            << ", \"host_cores\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_quote(SPMV_BENCH_BUILD_TYPE)
            << ", \"smoke\": " << (smoke_ ? "true" : "false")
            << ",\n \"params\": {";
        for (std::size_t i = 0; i < params_.size(); ++i)
            out << (i > 0 ? ", " : "") << json_quote(params_[i].first)
                << ": " << params_[i].second;
        out << "},\n \"metrics\": [";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric& m = metrics_[i];
            out << (i > 0 ? "," : "") << "\n  {\"name\": "
                << json_quote(m.name) << ", \"unit\": " << json_quote(m.unit)
                << ", \"value\": " << json_double(m.value)
                << ", \"reps\": " << m.reps << "}";
        }
        out << "\n ]}\n";
        out.flush();
        if (!out) {
            std::cerr << "cannot write " << path << "\n";
            return false;
        }
        std::cout << "perf point written to " << path << "\n";
        return true;
    }

private:
    struct Metric {
        std::string name;
        std::string unit;
        double value = 0.0;
        std::int64_t reps = 1;
    };

    std::string bench_;
    bool smoke_ = false;
    std::vector<std::pair<std::string, std::string>> params_;  ///< JSON text
    std::vector<Metric> metrics_;
};

/// Builds the matrix collection: real .mtx files if --mm was given,
/// otherwise the synthetic suite. `t_min` drops the small end of each
/// generator family (see SuiteOptions::t_min).
inline std::vector<gen::MatrixSpec> build_suite(const CommonOptions& o,
                                                double t_min = 0.0) {
    if (!o.mm_dir.empty()) return gen::matrix_market_suite(o.mm_dir);
    gen::SuiteOptions suite;
    suite.count = o.count;
    suite.scale = o.scale;
    suite.t_min = t_min;
    suite.seed = o.seed;
    return gen::synthetic_suite(suite);
}

/// Standard experiment options on the default (full A64FX) machine.
inline ExperimentOptions experiment_options(const CommonOptions& o) {
    ExperimentOptions e;
    e.machine = a64fx_default();
    e.threads = o.threads;
    return e;
}

/// Renders one boxplot distribution as a table row: the quantities Fig. 2
/// and Fig. 3 display (quartiles, median, whiskers, outlier count).
inline std::vector<std::string> boxplot_row(const std::string& label,
                                            std::span<const double> data,
                                            int precision = 2) {
    const auto box = boxplot(data);
    return {label,
            fmt(box.whisker_lo, precision),
            fmt(box.q1, precision),
            fmt(box.median, precision),
            fmt(box.q3, precision),
            fmt(box.whisker_hi, precision),
            std::to_string(box.outliers.size()),
            fmt(box.mean, precision)};
}

inline std::vector<std::string> boxplot_headers(const std::string& first) {
    return {first, "whisk_lo", "q1", "median", "q3", "whisk_hi",
            "outliers", "mean"};
}

}  // namespace spmvcache::bench
