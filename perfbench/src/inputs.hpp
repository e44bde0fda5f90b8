// Helpers the workloads share on the library side: seeded generator
// matrices, the model options a `predict` request resolves to, and the
// per-matrix facts every run record carries.
#pragma once

#include <stdexcept>
#include <string>

#include "cachesim/a64fx.hpp"
#include "core/matrix_source.hpp"
#include "harness.hpp"
#include "model/classify.hpp"
#include "model/options.hpp"
#include "sparse/matrix_stats.hpp"

namespace perfbench {

/// Simulated threads of every model run and sweep: the full A64FX.
inline constexpr std::int64_t kSimThreads = 48;

/// Builds `spec` (FAMILY:N) from `seed`; a generator error is fatal.
inline spmvcache::CsrMatrix generate(const std::string& spec,
                                     std::uint64_t seed) {
    spmvcache::Result<spmvcache::CsrMatrix> m =
        spmvcache::generated_matrix(spec, seed);
    if (!m.ok()) throw std::runtime_error(m.error().render());
    return std::move(m).value();
}

/// The options a `predict` request with these knobs runs the model at:
/// full A64FX, 48 threads, the paper's way list 2..7 plus the L1 model.
inline spmvcache::ModelOptions predict_options(std::int64_t jobs,
                                               double sample_rate = 1.0) {
    spmvcache::ModelOptions o;
    o.machine = spmvcache::a64fx_default();
    o.threads = kSimThreads;
    o.jobs = jobs;
    o.l2_way_options = {2, 3, 4, 5, 6, 7};
    o.sample_rate = sample_rate;
    return o;
}

/// §3.1 class with 5 of 16 L2 ways isolated, as `spmvcache classify`.
inline std::string matrix_class(const spmvcache::MatrixStats& stats) {
    const spmvcache::A64fxConfig machine = spmvcache::a64fx_default();
    const std::uint64_t sector0 =
        spmvcache::ways_to_lines(machine.l2, machine.l2.ways - 5) *
        machine.l2.line_bytes;
    return spmvcache::to_string(
        spmvcache::classify(stats, machine.l2.size_bytes, sector0));
}

/// Records a matrix's shape, class and resolved index width.
inline void describe_matrix(Context& ctx, const std::string& name,
                            const spmvcache::MatrixStats& stats) {
    const std::string key = "matrix." + name;
    ctx.record.set(key + ".rows", static_cast<double>(stats.rows));
    ctx.record.set(key + ".nnz", static_cast<double>(stats.nnz));
    ctx.record.set(key + ".class", matrix_class(stats));
    ctx.record.set(key + ".index_width", spmvcache::to_string(stats.index_width));
    ctx.record.set(key + ".cv_nnz_per_row", stats.cv_nnz_per_row);
}

}  // namespace perfbench
