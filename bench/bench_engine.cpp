// Raw reuse-distance engine throughput in three modes:
//
//   serial   access(), one call per reference
//   batched  access_batch(), the engine's lookahead loop; distances stay
//            bit-identical to serial (checked by checksum)
//   approx   SampledEngine at R = 0.01 over the batched loop — throughput
//            counted in *input* refs/s, since the model's cost per demand
//            reference is what sampling cuts
//
// plus one capacity-stack leg: CapacityStackEngine's batched path pricing
// the paper's six sector-0 capacities, each group tallied in a
// CapacityMissCounter, as the model runs them. The engine reports groups
// rather than distances, so the leg is checked by miss counts: every
// capacity's total must equal the one Olken's distances give on the same
// stream.
//
// The workload is a uniform-random line stream over a footprint large
// enough that the line->node hash map falls out of every cache level, so
// each probe is a dependent DRAM miss in the serial leg — the stall the
// batched loop's prefetches overlap.
//
// Writes its record to BENCH_engine_throughput.json (--out overrides the
// path) when both checks pass, and exits 1 without one when either fails.
// --smoke shrinks the stream for CI.
#include <cstdint>
#include <vector>

#include "bench_common.hpp"
#include "reuse/capacity_stack.hpp"
#include "reuse/histogram.hpp"
#include "reuse/kim.hpp"
#include "reuse/olken.hpp"
#include "reuse/sampled.hpp"

namespace {

using namespace spmvcache;

/// splitmix64: deterministic, well-mixed 64-bit stream.
std::uint64_t mix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::uint64_t> make_stream(std::uint64_t refs,
                                       std::uint64_t distinct_lines,
                                       std::uint64_t seed) {
    std::vector<std::uint64_t> lines;
    lines.reserve(static_cast<std::size_t>(refs));
    std::uint64_t state = seed;
    for (std::uint64_t i = 0; i < refs; ++i)
        lines.push_back(mix64(state) % distinct_lines);
    return lines;
}

constexpr std::size_t kBatch = 1024;

/// One timed access_batch sweep over the stream; returns the distance
/// checksum (kSkippedDistance entries excluded so sampled legs stay
/// summable) and records the wall-clock in `seconds`.
template <class Engine>
std::uint64_t run_batched(Engine& engine,
                          const std::vector<std::uint64_t>& lines,
                          double& seconds) {
    std::vector<std::uint64_t> dists(kBatch);
    std::uint64_t checksum = 0;
    Timer timer;
    for (std::size_t i = 0; i < lines.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, lines.size() - i);
        engine.access_batch(lines.data() + i, dists.data(), n);
        for (std::size_t k = 0; k < n; ++k)
            if (dists[k] != kSkippedDistance) checksum += dists[k];
    }
    seconds = timer.seconds();
    return checksum;
}

struct Legs {
    double serial_seconds = 0.0;
    double batched_seconds = 0.0;
    double approx_seconds = 0.0;  ///< SampledEngine, input refs/s
    std::uint64_t checksum_serial = 0;
    std::uint64_t checksum_batched = 0;
    std::uint64_t approx_sampled_refs = 0;
};

/// Runs all three legs on fresh engines over the same stream.
template <class Engine, class... Args>
Legs run_legs(const std::vector<std::uint64_t>& lines, double sample_rate,
              Args&&... args) {
    Legs legs;
    {
        Engine engine(args...);
        Timer timer;
        for (const std::uint64_t line : lines)
            legs.checksum_serial += engine.access(line);
        legs.serial_seconds = timer.seconds();
    }
    {
        Engine engine(args...);
        legs.checksum_batched =
            run_batched(engine, lines, legs.batched_seconds);
    }
    {
        SampledEngine<Engine> engine(SampleFilter(sample_rate), args...);
        (void)run_batched(engine, lines, legs.approx_seconds);
        legs.approx_sampled_refs = engine.sampled_refs();
    }
    return legs;
}

/// The paper's six sector-0 capacities in lines: (16 - w) * 2048 for
/// w = 2..7 sector-1 ways of the A64FX L2.
std::vector<std::uint64_t> sector0_capacities() {
    std::vector<std::uint64_t> caps;
    for (std::uint64_t w = 2; w <= 7; ++w) caps.push_back((16 - w) * 2048);
    return caps;
}

/// The capacity-stack leg: one timed batched pass over the stream at
/// `caps`, each access's group tallied as the model tallies it.
CapacityMissCounter run_capacity_stack(
    const std::vector<std::uint64_t>& lines,
    const std::vector<std::uint64_t>& caps, double& seconds) {
    CapacityMissCounter counter(caps);
    CapacityStackEngine engine(counter.boundaries());
    std::vector<std::uint32_t> groups(kBatch);
    Timer timer;
    for (std::size_t i = 0; i < lines.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, lines.size() - i);
        engine.access_batch(lines.data() + i, groups.data(), n);
        for (std::size_t k = 0; k < n; ++k) counter.record(groups[k]);
    }
    seconds = timer.seconds();
    return counter;
}

/// Misses at each of `caps` from Olken's full distances (untimed).
std::vector<std::uint64_t> olken_misses(
    const std::vector<std::uint64_t>& lines,
    const std::vector<std::uint64_t>& caps, std::uint64_t distinct) {
    OlkenEngine engine(distinct);
    std::vector<std::uint64_t> misses(caps.size(), 0);
    std::vector<std::uint64_t> dists(kBatch);
    for (std::size_t i = 0; i < lines.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, lines.size() - i);
        engine.access_batch(lines.data() + i, dists.data(), n);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t c = 0; c < caps.size(); ++c)
                if (dists[k] >= caps[c]) ++misses[c];
    }
    return misses;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli = parse_cli(
        argc, argv, "bench_engine",
        {"smoke", "lines", "refs", "seed", "sample-rate", "group-capacity",
         "out"});
    const bool smoke = cli.has("smoke");
    // Footprint: distinct lines drive the FlatMap64 size. 1 << 23 lines
    // put the map at ~128 MiB after growth — far beyond L2, so probes
    // miss. Smoke mode stays cache-resident but still exercises the path.
    const std::uint64_t distinct = static_cast<std::uint64_t>(
        cli.get_int("lines", smoke ? (1 << 16) : (1 << 23)));
    const std::uint64_t refs = static_cast<std::uint64_t>(
        cli.get_int("refs", smoke ? (1 << 19) : (1 << 24)));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const double sample_rate = cli.get_double("sample-rate", 0.01);
    // Wide groups (8 groups over the default footprint) keep Kim's
    // O(#groups) demotion cascade proportionate to the hash and node
    // misses the batched pipeline hides; sub-group distance resolution is
    // unaffected by the batching either way.
    const std::uint64_t kim_groups = static_cast<std::uint64_t>(
        cli.get_int("group-capacity", 1 << 20));

    std::cout << "Engine throughput, " << refs << " refs over " << distinct
              << " distinct lines (serial access() vs batched "
                 "access_batch() vs SHARDS-sampled R="
              << sample_rate << ")\n\n";

    const std::vector<std::uint64_t> lines =
        make_stream(refs, distinct, seed);

    const Legs kim = run_legs<KimEngine>(lines, sample_rate, kim_groups);
    const Legs olken = run_legs<OlkenEngine>(lines, sample_rate, distinct);
    for (const Legs* legs : {&kim, &olken}) {
        if (legs->checksum_serial != legs->checksum_batched) {
            std::cerr << "FATAL: batched distances differ from serial\n";
            return 1;
        }
    }

    const std::vector<std::uint64_t> caps = sector0_capacities();
    double stack_seconds = 0.0;
    const CapacityMissCounter stack = run_capacity_stack(lines, caps,
                                                         stack_seconds);
    const std::vector<std::uint64_t> want = olken_misses(lines, caps,
                                                         distinct);
    for (std::size_t c = 0; c < caps.size(); ++c) {
        if (stack.total_misses(caps[c]) != want[c]) {
            std::cerr << "FATAL: capacity-stack misses at " << caps[c]
                      << " lines differ from Olken's\n";
            return 1;
        }
    }

    const auto rate = [&](double s) {
        return s > 0 ? static_cast<double>(refs) / s : 0.0;
    };
    const auto speedup = [](double base, double s) {
        return s > 0 ? base / s : 0.0;
    };

    TextTable table({"engine", "serial [Mref/s]", "batched [Mref/s]",
                     "approx [Mref/s]", "approx/serial"});
    const auto add_row = [&](const char* name, const Legs& legs) {
        table.add_row({name, fmt(rate(legs.serial_seconds) / 1e6, 2),
                       fmt(rate(legs.batched_seconds) / 1e6, 2),
                       fmt(rate(legs.approx_seconds) / 1e6, 2),
                       fmt(speedup(legs.serial_seconds,
                                   legs.approx_seconds),
                           1)});
    };
    add_row("kim", kim);
    add_row("olken", olken);
    table.render(std::cout);
    std::cout << "exact distances identical across serial/batched legs "
                 "(checksums match); approx counted in input refs/s ("
              << kim.approx_sampled_refs << " kim / "
              << olken.approx_sampled_refs
              << " olken refs survived the filter)\n";
    std::cout << "capacity stack at the " << caps.size()
              << " sector-0 capacities: "
              << fmt(rate(stack_seconds) / 1e6, 2) << " Mref/s batched ("
              << fmt(speedup(olken.batched_seconds, stack_seconds), 2)
              << "x Olken batched); miss counts equal Olken's at every "
                 "capacity\n";

    BenchRecord record("engine_throughput", smoke);
    record.param("refs", refs);
    record.param("distinct_lines", distinct);
    record.param("seed", seed);
    record.param("sample_rate", sample_rate);
    record.param("kim_group_capacity", kim_groups);
    for (const auto& [name, legs] : {std::pair{"kim", &kim},
                                     std::pair{"olken", &olken}}) {
        const std::string at = std::string(name) + ".";
        const auto reps = static_cast<std::int64_t>(refs);
        record.metric(at + "serial_refs_per_s", "1/s",
                      rate(legs->serial_seconds), reps);
        record.metric(at + "batched_refs_per_s", "1/s",
                      rate(legs->batched_seconds), reps);
        record.metric(at + "approx_input_refs_per_s", "1/s",
                      rate(legs->approx_seconds), reps);
        record.metric(at + "approx_sampled_refs", "count",
                      static_cast<double>(legs->approx_sampled_refs));
    }
    record.metric("capacity_stack.refs_per_s", "1/s", rate(stack_seconds),
                  static_cast<std::int64_t>(refs));
    return record.write(cli.get("out", "BENCH_engine_throughput.json")) ? 0
                                                                         : 1;
}
