// Golden sweep counters: run_sector_sweep's output pinned bit for bit.
//
// Each digest covers every counter of every MeasuredConfig plus the bits of
// timing.seconds, for one (generator, machine, thread count) cell, over
// every sector policy, LRU and NRU replacement and x software-prefetch
// distances 0 and 8. The digests were recorded from the sweep's earlier
// loop, which generated the full round-robin interleaving and fed it
// reference by reference to every configuration, so the segment-sharded
// replay must reproduce the single-machine run exactly. In every cell one
// sweep of the W64 copy of the matrix must equal the W32 sweep: the sweep
// lays addresses out at the paper's (4, 8)-byte accounting at either
// width. The matrices are small so the suite stays quick under TSan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/rmat.hpp"
#include "sparse/gen/stencil.hpp"

namespace spmvcache {
namespace {

/// test_experiment's 4-core machine: two 2-core segments of 512 KiB L2.
A64fxConfig scaled_machine() {
    A64fxConfig cfg;
    cfg.cores = 4;
    cfg.cores_per_numa = 2;
    cfg.l1 = CacheConfig{16 * 1024, 256, 4, 0};
    cfg.l2 = CacheConfig{512 * 1024, 256, 16, 0};
    cfg.l1_prefetch = PrefetchConfig{true, 4, 8, 8};
    cfg.l2_prefetch = PrefetchConfig{true, 32, 16, 8};
    return cfg;
}

struct Cell {
    const char* machine;
    std::int64_t threads;
    std::uint64_t digest;
};

class Fnv1a {
public:
    void add(std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add(Fnv1a& h, const MeasuredConfig& r) {
    for (const std::uint64_t v :
         {std::uint64_t{r.ways.l2}, std::uint64_t{r.ways.l1}, r.l1.accesses,
          r.l1.hits, r.l1.refills, r.l1.prefetch_fills, r.l1.writebacks,
          r.l1.prefetch_unused_evictions, r.l2.demand_accesses,
          r.l2.demand_hits, r.l2.demand_fills, r.l2.prefetch_fills,
          r.l2.swap_dm, r.l2.writebacks, r.l2.prefetch_unused_evictions})
        h.add(v);
    h.add(std::bit_cast<std::uint64_t>(r.timing.seconds));
}

/// Folds one sweep over three sector configurations into `h`.
void add_sweep(Fnv1a& h, const AnyCsrView& m, const ExperimentOptions& o) {
    const std::vector<SectorWays> configs = {
        SectorWays{0, 0}, SectorWays{2, 1}, SectorWays{5, 0}};
    for (const MeasuredConfig& r : run_sector_sweep(m, configs, o)) add(h, r);
}

std::uint64_t sweep_digest(const AnyCsrView& m, const ExperimentOptions& o) {
    Fnv1a h;
    add_sweep(h, m, o);
    return h.value();
}

ExperimentOptions options(const A64fxConfig& machine, std::int64_t threads,
                          SectorPolicy policy, ReplacementPolicy replacement,
                          std::int64_t x_prefetch_distance) {
    ExperimentOptions o;
    o.machine = machine;
    o.machine.l1.replacement = replacement;
    o.machine.l2.replacement = replacement;
    o.threads = threads;
    o.policy = policy;
    o.x_prefetch_distance = x_prefetch_distance;
    return o;
}

/// Digest of every sweep of one cell: 4 policies x 2 replacement policies
/// x 2 prefetch distances.
std::uint64_t cell_digest(const AnyCsrView& m, const A64fxConfig& machine,
                          std::int64_t threads) {
    Fnv1a h;
    for (const SectorPolicy policy :
         {SectorPolicy::NoPartition, SectorPolicy::IsolateMatrix,
          SectorPolicy::IsolateMatrixRowptrY, SectorPolicy::IsolateX})
        for (const ReplacementPolicy replacement :
             {ReplacementPolicy::Lru, ReplacementPolicy::Nru})
            for (const std::int64_t distance : {0, 8})
                add_sweep(h, m,
                          options(machine, threads, policy, replacement,
                                  distance));
    return h.value();
}

void expect_golden(const CsrMatrix& m, const std::vector<Cell>& cells) {
    // The width only changes which generator instantiation derives the
    // trace, so one sweep with prefetch hints covers the W64 copy.
    const CsrMatrix64 wide = convert_csr_width<Idx64>(CsrView(m));
    for (const Cell& cell : cells) {
        const A64fxConfig machine = std::string(cell.machine) == "scaled"
                                        ? scaled_machine()
                                        : a64fx_default();
        const std::uint64_t narrow = cell_digest(m, machine, cell.threads);
        EXPECT_EQ(narrow, cell.digest)
            << "{\"" << cell.machine << "\", " << cell.threads << ", 0x"
            << std::hex << narrow << "ULL}";
        const ExperimentOptions o =
            options(machine, cell.threads, SectorPolicy::IsolateMatrix,
                    ReplacementPolicy::Lru, 8);
        EXPECT_EQ(sweep_digest(wide, o), sweep_digest(m, o))
            << "W64 copy, " << cell.machine << " at " << cell.threads
            << " threads";
    }
}

TEST(SweepGolden, Stencil2d5) {
    expect_golden(gen::stencil_2d_5pt(48, 48),
                  {{"a64fx", 1, 0x0a2b7002e3d5c32eULL},
                   {"a64fx", 12, 0x144955e596595637ULL},
                   {"a64fx", 48, 0xc25d30c5ebc85935ULL},
                   {"scaled", 4, 0xa4477744f2b99144ULL}});
}

TEST(SweepGolden, Banded) {
    expect_golden(gen::banded(4096, 9, 64, 5),
                  {{"a64fx", 1, 0xf404ef1abed5a689ULL},
                   {"a64fx", 12, 0x5ea376d52d22bd60ULL},
                   {"a64fx", 48, 0xa31d32897a6758a2ULL},
                   {"scaled", 4, 0xbf789d1de792a634ULL}});
}

TEST(SweepGolden, UniformRandom) {
    expect_golden(gen::random_uniform(2048, 2048, 16, 11),
                  {{"a64fx", 1, 0xe6d2b278a9f462e9ULL},
                   {"a64fx", 12, 0x0b76fc48d60839f9ULL},
                   {"a64fx", 48, 0x8b440732d45e225bULL},
                   {"scaled", 4, 0xe2d8f74fd84a223bULL}});
}

TEST(SweepGolden, Rmat) {
    expect_golden(gen::rmat(11, 16000, 7),
                  {{"a64fx", 1, 0x3fe40386a2f1c55cULL},
                   {"a64fx", 12, 0xc7ca0a8ca6bf64a5ULL},
                   {"a64fx", 48, 0x0a1de44316c2a186ULL},
                   {"scaled", 4, 0x892d3df538878bc2ULL}});
}

}  // namespace
}  // namespace spmvcache
