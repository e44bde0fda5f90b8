// Raw reuse-distance engine throughput in three modes:
//
//   serial   virtual access(), one call per reference
//   batched  access_batch(), the engine's lookahead loop; distances stay
//            bit-identical to serial (checked by checksum)
//   approx   SampledEngine at R = 0.01 over the batched loop — throughput
//            counted in *input* refs/s, since the model's cost per demand
//            reference is what sampling cuts
//
// plus one capacity-stack leg: CapacityStackEngine's batched path pricing
// the paper's six sector-0 capacities, the engine the model runs. Its
// distances are class-exact rather than full, so the leg is checked by
// miss counts: every capacity's total must equal the one Olken's
// distances give on the same stream.
//
// The workload is a uniform-random line stream over a footprint large
// enough that the line->node hash map falls out of every cache level, so
// each probe is a dependent DRAM miss in the serial leg — the stall the
// batched loop's prefetches overlap.
//
// Emits a perf-trajectory point to BENCH_engine_throughput.json (--out
// overrides the path). --smoke shrinks the stream for CI. The "kim" and
// "olken" keys carry the serial, batched and approx legs, and
// "capacity_stack" the grouped-stack leg.
#include <cstdint>
#include <fstream>
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
        ReuseEngine& virt = engine;  // force virtual dispatch per access
        Timer timer;
        for (const std::uint64_t line : lines)
            legs.checksum_serial += virt.access(line);
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

/// Miss counts at `caps` from `engine`'s batched distances (untimed).
template <class Engine>
CapacityMissCounter count_misses(Engine& engine,
                                 const std::vector<std::uint64_t>& lines,
                                 const std::vector<std::uint64_t>& caps) {
    CapacityMissCounter counter(caps);
    std::vector<std::uint64_t> dists(kBatch);
    for (std::size_t i = 0; i < lines.size(); i += kBatch) {
        const std::size_t n = std::min(kBatch, lines.size() - i);
        engine.access_batch(lines.data() + i, dists.data(), n);
        for (std::size_t k = 0; k < n; ++k) counter.record(dists[k]);
    }
    return counter;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace spmvcache;
    using namespace spmvcache::bench;

    const CliParser cli(argc, argv);
    print_usage_hint("bench_engine");
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
              << " distinct lines (serial virtual access() vs batched "
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
    {
        CapacityStackEngine engine(caps);
        (void)run_batched(engine, lines, stack_seconds);
    }
    {
        CapacityStackEngine stack(caps);
        OlkenEngine reference(distinct);
        const CapacityMissCounter got = count_misses(stack, lines, caps);
        const CapacityMissCounter want = count_misses(reference, lines, caps);
        for (const std::uint64_t c : caps) {
            if (got.total_misses(c) != want.total_misses(c)) {
                std::cerr << "FATAL: capacity-stack misses at " << c
                          << " lines differ from Olken's\n";
                return 1;
            }
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

    const std::string out_path =
        cli.get("out", "BENCH_engine_throughput.json");
    std::ofstream out(out_path);
    if (out) {
        const auto engine_json = [&](const Legs& legs) {
            std::string s = "{\"serial_refs_per_sec\": " +
                            std::to_string(rate(legs.serial_seconds));
            s += ", \"batched_refs_per_sec\": " +
                 std::to_string(rate(legs.batched_seconds));
            s += ", \"speedup\": " +
                 std::to_string(speedup(legs.serial_seconds,
                                        legs.batched_seconds));
            s += ", \"approx\": {\"sample_rate\": " +
                 std::to_string(sample_rate);
            s += ", \"input_refs_per_sec\": " +
                 std::to_string(rate(legs.approx_seconds));
            s += ", \"sampled_refs\": " +
                 std::to_string(legs.approx_sampled_refs);
            s += ", \"speedup_vs_batched\": " +
                 std::to_string(speedup(legs.batched_seconds,
                                        legs.approx_seconds));
            s += ", \"speedup_vs_serial\": " +
                 std::to_string(speedup(legs.serial_seconds,
                                        legs.approx_seconds)) +
                 "}}";
            return s;
        };
        out << "{\"bench\": \"engine_throughput\", \"refs\": " << refs
            << ", \"distinct_lines\": " << distinct
            << ", \"smoke\": " << (smoke ? "true" : "false")
            << ", \"sample_rate\": " << sample_rate << ",\n \"kim\": "
            << engine_json(kim) << ",\n \"olken\": " << engine_json(olken)
            << ",\n \"capacity_stack\": {\"capacities\": [";
        for (std::size_t i = 0; i < caps.size(); ++i)
            out << (i > 0 ? ", " : "") << caps[i];
        out << "], \"refs_per_sec\": " << std::to_string(rate(stack_seconds))
            << ", \"speedup_vs_olken\": "
            << std::to_string(
                   speedup(olken.batched_seconds, stack_seconds))
            << ", \"miss_counts_match_olken\": true}}\n";
        std::cout << "perf point written to " << out_path << "\n";
    } else {
        std::cerr << "cannot write " << out_path << "\n";
    }
    return 0;
}
