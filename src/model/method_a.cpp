#include "model/method_a.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "model/replay.hpp"
#include "reuse/capacity_stack.hpp"
#include "reuse/histogram.hpp"
#include "trace/packed_trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvcache {

const ConfigPrediction* ModelResult::find_ptr(
    std::uint32_t l2_sector_ways) const noexcept {
    for (const auto& c : configs)
        if (c.l2_sector_ways == l2_sector_ways) return &c;
    return nullptr;
}

[[nodiscard]] Result<ConfigPrediction> ModelResult::find(
    std::uint32_t l2_sector_ways) const {
    if (const ConfigPrediction* p = find_ptr(l2_sector_ways)) return *p;
    return Error(ErrorCode::ValidationError,
                 "no prediction for " + std::to_string(l2_sector_ways) +
                     " L2 sector ways in this run");
}

const ConfigPrediction& ModelResult::at(std::uint32_t l2_sector_ways) const {
    if (const ConfigPrediction* p = find_ptr(l2_sector_ways)) return *p;
    throw_status(Error(ErrorCode::ValidationError,
                       "no prediction for " +
                           std::to_string(l2_sector_ways) +
                           " L2 sector ways in this run"));
}

const ConfigPrediction& ModelResult::best() const {
    SPMV_EXPECTS(!configs.empty());
    const ConfigPrediction* best = &configs.front();
    for (const ConfigPrediction& c : configs)
        if (c.l2_misses < best->l2_misses) best = &c;
    return *best;
}

namespace {

/// Everything one shard accumulates; queried after the parallel phase.
/// Summing per-shard counters yields the same integer totals the single
/// global counters accumulated before sharding, so predictions are
/// bit-identical for any job count.
struct ShardCounters {
    ShardCounters(const std::vector<std::uint64_t>& caps0,
                  const std::vector<std::uint64_t>& caps1,
                  std::uint64_t cap_full, std::uint64_t l1_cap,
                  const SampleFilter& filter)
        : cnt0(caps0, filter),
          cnt1(caps1, filter),
          cnt_x(caps0, filter),
          cntU({cap_full}, filter),
          cnt_xU({cap_full}, filter),
          cntL1({l1_cap}, filter),
          cnt_xL1({l1_cap}, filter) {}

    CapacityMissCounter cnt0, cnt1, cnt_x;  // partitioned pass (Eq. 2)
    CapacityMissCounter cntU, cnt_xU;       // unpartitioned pass
    CapacityMissCounter cntL1, cnt_xL1;     // per-core L1 model
};

/// Method (A)'s chunk consumer for one shard. It feeds both sectors'
/// engines (Eq. 2), the unpartitioned engine and, optionally, one per-core
/// L1 engine per simulated thread. Each engine runs on the group
/// boundaries of the counters its groups feed.
class ShardReplay {
public:
    ShardReplay(const detail::ReplayPlan& plan, std::int64_t s,
                ShardCounters& counters)
        : policy_(plan.options.policy),
          t_begin_(plan.first_thread(s)),
          x_lines_(plan.layout.lines_of(DataObject::X)),
          counters_(counters),
          eng0_(counters.cnt0.boundaries()),
          eng1_(counters.cnt1.boundaries()),
          engU_(counters.cntU.boundaries()) {
        SPMV_EXPECTS(plan.layout.base(DataObject::X) == 0);  // see record()
        const std::int64_t l1_engines =
            plan.options.predict_l1 ? plan.threads_in(s) : 0;
        for (std::int64_t t = 0; t < l1_engines; ++t)
            engL1_.emplace_back(counters.cntL1.boundaries());
        linesL1_.resize(engL1_.size());
        groupsL1_.resize(engL1_.size());
    }

    /// Replays one chunk of at most kReplayBatch words: gathers each
    /// engine's lines (each engine sees exactly its trace-order
    /// subsequence, so chunk boundaries never change a group), runs the
    /// batched prefetch-pipelined engine paths, then tallies the groups in
    /// the counters.
    void operator()(std::span<const std::uint64_t> words) {
        linesU_.clear();
        lines0_.clear();
        lines1_.clear();
        for (auto& lines : linesL1_) lines.clear();
        for (const std::uint64_t word : words) {
            const std::uint64_t line = packed_line(word);
            linesU_.push_back(line);
            (sector_of(packed_object(word), policy_) == 1 ? lines1_ : lines0_)
                .push_back(line);
            if (!engL1_.empty())
                linesL1_[static_cast<std::size_t>(
                             static_cast<std::int64_t>(packed_thread(word)) -
                             t_begin_)]
                    .push_back(line);
        }

        run(engU_, linesU_, groupsU_);
        run(eng0_, lines0_, groups0_);
        run(eng1_, lines1_, groups1_);
        for (std::size_t t = 0; t < engL1_.size(); ++t)
            run(engL1_[t], linesL1_[t], groupsL1_[t]);

        record(lines0_, groups0_, counters_.cnt0, &counters_.cnt_x);
        record(lines1_, groups1_, counters_.cnt1, nullptr);  // x is sector 0
        record(linesU_, groupsU_, counters_.cntU, &counters_.cnt_xU);
        for (std::size_t t = 0; t < engL1_.size(); ++t)
            record(linesL1_[t], groupsL1_[t], counters_.cntL1,
                   &counters_.cnt_xL1);
    }

    /// Ends the shard's one pass: every engine closes its period, moving
    /// the first accesses it reported off the stack into the groups a
    /// counted iteration after a warm-up one would give them.
    void close_period() {
        close(eng0_, counters_.cnt0, &counters_.cnt_x);
        close(eng1_, counters_.cnt1, nullptr);
        close(engU_, counters_.cntU, &counters_.cnt_xU);
        for (const CapacityStackEngine& engine : engL1_)
            close(engine, counters_.cntL1, &counters_.cnt_xL1);
    }

private:
    static void run(CapacityStackEngine& engine,
                    const std::vector<std::uint64_t>& lines,
                    std::vector<std::uint32_t>& groups) {
        groups.resize(lines.size());
        engine.access_batch(lines.data(), groups.data(), lines.size());
    }

    /// Tallies every group in `all`, and those of x-vector lines (x is
    /// the layout's first array) in `x` as well.
    void record(const std::vector<std::uint64_t>& lines,
                const std::vector<std::uint32_t>& groups,
                CapacityMissCounter& all, CapacityMissCounter* x) const {
        for (std::size_t i = 0; i < groups.size(); ++i) {
            all.record(groups[i]);
            if (x != nullptr && lines[i] < x_lines_) x->record(groups[i]);
        }
    }

    /// record() for the groups `engine`'s period close reports.
    void close(const CapacityStackEngine& engine, CapacityMissCounter& all,
               CapacityMissCounter* x) const {
        engine.close_period([&](std::uint64_t line, std::uint32_t group) {
            all.resolve_cold(group);
            if (x != nullptr && line < x_lines_) x->resolve_cold(group);
        });
    }

    SectorPolicy policy_;
    std::int64_t t_begin_;
    std::uint64_t x_lines_;
    ShardCounters& counters_;
    CapacityStackEngine eng0_, eng1_, engU_;
    std::vector<CapacityStackEngine> engL1_;
    // Per-batch gather/scatter scratch, reused across batches.
    std::vector<std::uint64_t> linesU_, lines0_, lines1_;
    std::vector<std::uint32_t> groupsU_, groups0_, groups1_;
    std::vector<std::vector<std::uint64_t>> linesL1_;
    std::vector<std::vector<std::uint32_t>> groupsL1_;
};

/// One shard = one L2 segment: one streamed pass, then the period close.
ShardStats run_shard(const detail::ReplayPlan& plan, std::int64_t s,
                     ShardCounters& counters) {
    const Timer timer;
    ShardReplay replay(plan, s, counters);
    ShardStats st = detail::replay_segment(plan, s, std::ref(replay));
    replay.close_period();
    st.seconds = timer.seconds();
    return st;
}

}  // namespace

/// The trace layout spaces colidx/rowptr at the *accounted* element sizes,
/// so a W32 matrix touches half the index lines a W64 one does — unless the
/// caller pins the accounting (the width-differential tests do exactly
/// that).
ModelResult run_method_a(const AnyCsrView& m, const ModelOptions& options) {
    const Timer timer;
    const detail::ReplayPlan plan(m, options);
    const SampleFilter& filter = plan.filter;

    const auto& machine = options.machine;
    const std::uint64_t l2_sets = machine.l2.sets();
    const std::uint64_t l2_total_ways = machine.l2.ways;

    // Partition capacities (in lines) priced by the partitioned pass.
    std::vector<std::uint64_t> caps0;  // sector 0: (ways - w) * sets
    std::vector<std::uint64_t> caps1;  // sector 1: w * sets
    for (const auto w : options.l2_way_options) {
        SPMV_EXPECTS(w >= 1 && w < l2_total_ways);
        caps0.push_back((l2_total_ways - w) * l2_sets);
        caps1.push_back(static_cast<std::uint64_t>(w) * l2_sets);
    }
    const std::uint64_t cap_full = l2_total_ways * l2_sets;
    const std::uint64_t l1_cap = machine.l1.lines();

    std::vector<ShardCounters> shard_state;
    shard_state.reserve(static_cast<std::size_t>(plan.segments));
    for (std::int64_t s = 0; s < plan.segments; ++s)
        shard_state.emplace_back(caps0, caps1, cap_full, l1_cap, filter);
    std::vector<ShardStats> shards(static_cast<std::size_t>(plan.segments));

    plan.for_each_shard([&](std::int64_t s) {
        shards[static_cast<std::size_t>(s)] =
            run_shard(plan, s, shard_state[static_cast<std::size_t>(s)]);
    });

    // ---- Assemble ---------------------------------------------------------
    // Under sampling each recorded reference stands for 1/R of the full
    // trace, so the integer counter totals are scaled once here (scale is
    // exactly 1.0 for exact runs — multiplying preserves bit-identity).
    const double scale = filter.inverse_rate();
    ModelResult result;
    result.sampled = !filter.exact();
    result.sample_rate = filter.rate();
    {
        ConfigPrediction off;
        off.l2_sector_ways = 0;
        // Cold misses count as misses at every capacity: after the period
        // close they are the accesses whose distance reaches past the
        // largest priced capacity.
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cntU.total_misses(cap_full);
            x_misses += st.cnt_xU.total_misses(cap_full);
        }
        off.l2_misses = static_cast<double>(misses) * scale;
        off.l2_x_misses = static_cast<double>(x_misses) * scale;
        result.configs.push_back(off);
    }
    for (std::size_t i = 0; i < options.l2_way_options.size(); ++i) {
        ConfigPrediction p;
        p.l2_sector_ways = options.l2_way_options[i];
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cnt0.total_misses(caps0[i]) +
                      st.cnt1.total_misses(caps1[i]);
            x_misses += st.cnt_x.total_misses(caps0[i]);
        }
        p.l2_misses = static_cast<double>(misses) * scale;
        p.l2_x_misses = static_cast<double>(x_misses) * scale;
        result.configs.push_back(p);
    }
    if (options.predict_l1) {
        std::uint64_t misses = 0, x_misses = 0;
        for (const auto& st : shard_state) {
            misses += st.cntL1.total_misses(l1_cap);
            x_misses += st.cnt_xL1.total_misses(l1_cap);
        }
        result.l1_misses = static_cast<double>(misses) * scale;
        result.l1_x_misses = static_cast<double>(x_misses) * scale;
    }
    const double total_unpart = result.configs.front().l2_misses;
    result.x_traffic_fraction =
        total_unpart > 0.0 ? result.configs.front().l2_x_misses / total_unpart
                           : 0.0;
    result.shards = std::move(shards);
    for (const auto& st : result.shards) result.sampled_refs += st.sampled_refs;
    result.jobs = plan.effective_jobs;
    result.seconds = timer.seconds();
    return result;
}

}  // namespace spmvcache
