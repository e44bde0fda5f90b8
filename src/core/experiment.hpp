// Experiment driver: the "run on hardware" step of every bench.
//
// run_sector_sweep() plays one warm-up plus one measured SpMV iteration
// through a bank of simulated A64FX machines, one per sector-cache
// configuration, and attaches the analytic timing estimate to each. It
// derives the trace the way the model does: it builds the model's replay
// plan (model/replay.hpp) from ExperimentOptions::model_options(), so the
// simulator and methods (A) and (B) lay out the same addresses by
// construction. Each L2 segment's slice of the trace is replayed on the
// plan's host workers, and every reference of a chunk is played into each
// configuration's machine in turn. Segments share no simulator state, so
// the counters equal those of feeding the whole interleaved trace to one
// machine. model_vs_measured() runs the model against the same matrix for
// Tables 2 and 3.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "perf/timing.hpp"
#include "sparse/csr.hpp"
#include "sparse/any_csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/matrix_stats.hpp"
#include "trace/memref.hpp"

namespace spmvcache {

/// Options shared by the sweep and the model comparison.
struct ExperimentOptions {
    A64fxConfig machine{};
    std::int64_t threads = 48;
    SectorPolicy policy = SectorPolicy::IsolateMatrix;
    PartitionPolicy partition = PartitionPolicy::BalancedRows;
    TimingParameters timing{};
    /// Warm-up iterations before the measured one: the replay plan makes
    /// one warm-up pass per segment.
    static constexpr std::int64_t warmup_iterations = 1;
    /// Software-prefetch distance for x in nonzeros (0 = off); see
    /// TraceConfig::x_prefetch_distance.
    std::int64_t x_prefetch_distance = 0;

    /// The ModelOptions both sides of an experiment share: this machine,
    /// thread count, sector policy and partition, with the index arrays
    /// accounted at the paper's 4-byte colidx and 8-byte rowptr at either
    /// storage width. run_sector_sweep replays its trace at these
    /// options, and model_vs_measured prices methods (A) and (B) at them.
    [[nodiscard]] ModelOptions model_options() const;
};

/// Measured (simulated-hardware) outcome of one sector configuration.
struct MeasuredConfig {
    SectorWays ways;
    L1Counters l1;
    L2Counters l2;
    TimingBreakdown timing;

    /// Relative difference in corrected L2 misses vs `baseline` in percent
    /// (negative = reduction), the Fig. 2 quantity.
    [[nodiscard]] double l2_miss_difference_percent(
        const MeasuredConfig& baseline) const;

    /// Relative difference in L2 *demand* misses in percent (Fig. 5).
    [[nodiscard]] double l2_demand_difference_percent(
        const MeasuredConfig& baseline) const;

    /// Speedup of this configuration over `baseline` (Fig. 3/4).
    [[nodiscard]] double speedup_over(const MeasuredConfig& baseline) const;
};

/// Runs the warm-up + measured iteration through one simulator per entry
/// of `configs` (each derived chunk of the trace feeds all of them), on
/// one host worker per L2 segment, up to the host's hardware threads.
[[nodiscard]] std::vector<MeasuredConfig> run_sector_sweep(
    const AnyCsrView& m, const std::vector<SectorWays>& configs,
    const ExperimentOptions& options);

/// Model prediction vs simulator measurement for Tables 2 and 3.
struct ModelComparison {
    MatrixStats stats;
    /// Measured corrected L2 misses per configuration: index 0 is the
    /// unpartitioned baseline, then one entry per l2_way_option.
    std::vector<double> measured_l2;
    double measured_l1_unpartitioned = 0.0;
    ModelResult method_a;
    ModelResult method_b;
};

/// Runs methods (A) and (B) plus the matching simulator measurements for
/// the unpartitioned case and every way count in `l2_way_options`
/// (L1 sector cache disabled throughout, as in Tables 2 and 3). Both
/// sides run at options.model_options().
[[nodiscard]] ModelComparison model_vs_measured(
    const AnyCsrView& m, const std::vector<std::uint32_t>& l2_way_options,
    const ExperimentOptions& options);

}  // namespace spmvcache
