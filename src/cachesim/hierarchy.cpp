#include "cachesim/hierarchy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace spmvcache {

MemoryHierarchy::MemoryHierarchy(const A64fxConfig& config)
    : config_(config) {
    SPMV_EXPECTS(config.cores >= 1);
    SPMV_EXPECTS(config.cores_per_numa >= 1);
    const auto cores = static_cast<std::size_t>(config.cores);
    const auto segments = static_cast<std::size_t>(config.numa_domains());

    l1_.reserve(cores);
    l1_prefetchers_.reserve(cores);
    l2_prefetchers_.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        l1_.emplace_back(config.l1);
        l1_prefetchers_.emplace_back(config.l1_prefetch);
        l2_prefetchers_.emplace_back(config.l2_prefetch);
    }
    l2_.reserve(segments);
    for (std::size_t s = 0; s < segments; ++s) l2_.emplace_back(config.l2);

    l1_counters_.resize(cores);
    l2_counters_.resize(segments);
    core_counters_.resize(cores);
    last_.resize(cores);
    scratch_.resize(segments);
    l2_skip_credits_.resize(segments, 0);
    l1_skip_credits_.resize(cores, 0);
}

void MemoryHierarchy::demand_access(std::uint32_t core, std::uint64_t line,
                                    int sector, bool write) {
    SPMV_EXPECTS(core < l1_.size());
    CoreCounters& cc = core_counters_[core];
    L1Counters& l1c = l1_counters_[core];
    ++cc.demand_accesses;
    ++l1c.accesses;

    // Fast path: repeated read of the line we just hit.
    LastAccess& last = last_[core];
    if (!write && line == last.line && sector == last.sector &&
        last.was_read_hit) {
        ++l1c.hits;
        return;
    }

    const std::int64_t segment =
        static_cast<std::int64_t>(core) / config_.cores_per_numa;
    SectorCache& l1 = l1_[core];

    const CacheOutcome l1_outcome = l1.lookup(line, sector, write);
    if (l1_outcome.hit) {
        ++l1c.hits;
    } else {
        ++l1c.refills;
        ++cc.l1_refills;
        // Demand access reaches the L2 segment.
        l2_demand(core, segment, line, sector);
        fill_l1(core, segment, line, sector, write, /*prefetched=*/false);

        // Both prefetchers train on this core's miss streams: the L1
        // prefetcher on L1 demand misses, the L2 prefetcher on the L2
        // access stream (which these misses constitute).
        auto& targets = scratch_[static_cast<std::size_t>(segment)].targets;
        l1_prefetchers_[core].observe(line, targets);
        issue_l1_prefetches(core, segment, sector);
        l2_prefetchers_[core].observe(line, targets);
        issue_l2_prefetches(segment, sector);
    }

    last.line = line;
    last.sector = sector;
    // The line is resident in this core's private L1 after any outcome
    // (hit, or miss followed by fill), so a repeated read may fast-path.
    last.was_read_hit = true;
}

void MemoryHierarchy::software_prefetch(std::uint32_t core,
                                        std::uint64_t line, int sector) {
    SPMV_EXPECTS(core < l1_.size());
    SectorCache& l1 = l1_[core];
    if (l1.contains(line)) return;
    const std::int64_t segment =
        static_cast<std::int64_t>(core) / config_.cores_per_numa;
    // Pull into L2 if absent (counted like any other prefetch fill), then
    // into the L1. No demand counters, no prefetcher training.
    l2_prefetch_fill(segment, line, sector);
    ++l1_counters_[core].prefetch_fills;
    fill_l1(core, segment, line, sector, /*write=*/false,
            /*prefetched=*/true);
}

void MemoryHierarchy::l2_demand(std::uint32_t core, std::int64_t segment,
                                std::uint64_t line, int sector) {
    L2Counters& l2c = l2_counters_[static_cast<std::size_t>(segment)];
    CoreCounters& cc = core_counters_[core];
    SectorCache& l2 = l2_[static_cast<std::size_t>(segment)];

    ++l2c.demand_accesses;
    const CacheOutcome outcome = l2.lookup(line, sector, /*write=*/false);
    if (outcome.hit) {
        ++l2c.demand_hits;
        ++cc.l2_demand_hits;
        if (outcome.hit_prefetched_unused) {
            ++l2c.swap_dm;
            ++cc.l2_swaps;
        }
        return;
    }
    // Demand miss: fetch the line from memory.
    ++l2c.demand_fills;
    ++cc.l2_demand_fills;
    const CacheOutcome fill =
        l2.fill(line, sector, /*write=*/false, /*prefetched=*/false);
    if (fill.evicted) {
        if (fill.evicted_dirty) ++l2c.writebacks;
        if (fill.evicted_prefetched_unused) {
            ++l2c.prefetch_unused_evictions;
            grant_l2_skip(segment);
        }
    }
}

void MemoryHierarchy::fill_l1(std::uint32_t core, std::int64_t segment,
                              std::uint64_t line, int sector, bool write,
                              bool prefetched) {
    L1Counters& l1c = l1_counters_[core];
    L2Counters& l2c = l2_counters_[static_cast<std::size_t>(segment)];
    const CacheOutcome fill = l1_[core].fill(line, sector, write, prefetched);
    if (!fill.evicted) return;
    // Keep the per-core fast-path cache honest: the remembered line may be
    // the one just evicted (e.g. by a prefetch fill into the same set).
    if (fill.evicted_line == last_[core].line) last_[core] = LastAccess{};
    if (fill.evicted_prefetched_unused) {
        ++l1c.prefetch_unused_evictions;
        grant_l1_skip(core);
    }
    if (fill.evicted_dirty) {
        ++l1c.writebacks;
        // Write back into the L2 copy; if the L2 already evicted the line
        // (non-inclusive hierarchy) the data goes straight to memory.
        if (!l2_[static_cast<std::size_t>(segment)].mark_dirty(
                fill.evicted_line))
            ++l2c.writebacks;
    }
}

void MemoryHierarchy::issue_l1_prefetches(std::uint32_t core,
                                          std::int64_t segment, int sector) {
    PrefetchScratch& scratch = scratch_[static_cast<std::size_t>(segment)];
    if (scratch.targets.empty()) return;
    L1Counters& l1c = l1_counters_[core];
    SectorCache& l1 = l1_[core];
    // L1 prefetch requests reach the L2 like demand requests do, so they
    // also train the L2 prefetcher (otherwise an L1 prefetcher that fully
    // covers a stream would starve the L2 one).
    scratch.l2.clear();
    for (const std::uint64_t target : scratch.targets) {
        if (l1.contains(target)) continue;
        if (l1_skip_credits_[core] > 0) {
            // Feedback throttling: a recent premature eviction cancels
            // this issue.
            --l1_skip_credits_[core];
            continue;
        }
        l2_prefetchers_[core].observe(target, scratch.l2);
        // An L1 prefetch that misses the L2 pulls the line into both
        // levels (counted as an L2 prefetch fill from memory).
        l2_prefetch_fill(segment, target, sector);
        ++l1c.prefetch_fills;
        fill_l1(core, segment, target, sector, /*write=*/false,
                /*prefetched=*/true);
    }
    scratch.targets.clear();
    for (const std::uint64_t target : scratch.l2)
        l2_prefetch_fill(segment, target, sector);
    scratch.l2.clear();
}

void MemoryHierarchy::issue_l2_prefetches(std::int64_t segment, int sector) {
    auto& targets = scratch_[static_cast<std::size_t>(segment)].targets;
    for (const std::uint64_t target : targets)
        l2_prefetch_fill(segment, target, sector);
    targets.clear();
}

void MemoryHierarchy::l2_prefetch_fill(std::int64_t segment,
                                       std::uint64_t target, int sector) {
    SectorCache& l2 = l2_[static_cast<std::size_t>(segment)];
    if (l2.contains(target)) return;
    std::uint64_t& credits =
        l2_skip_credits_[static_cast<std::size_t>(segment)];
    if (credits > 0) {
        // Feedback throttling (§4.3 mitigation on real hardware): skip
        // one issue per recent premature eviction so the in-flight window
        // converges to what the sector can hold.
        --credits;
        return;
    }
    L2Counters& l2c = l2_counters_[static_cast<std::size_t>(segment)];
    ++l2c.prefetch_fills;
    const CacheOutcome fill =
        l2.fill(target, sector, /*write=*/false, /*prefetched=*/true);
    if (fill.evicted) {
        if (fill.evicted_dirty) ++l2c.writebacks;
        if (fill.evicted_prefetched_unused) {
            ++l2c.prefetch_unused_evictions;
            grant_l2_skip(segment);
        }
    }
}

void MemoryHierarchy::set_sector_ways(SectorWays ways) {
    for (auto& cache : l1_) cache.set_sector1_ways(ways.l1);
    for (auto& cache : l2_) cache.set_sector1_ways(ways.l2);
    config_.l1.sector1_ways = ways.l1;
    config_.l2.sector1_ways = ways.l2;
}

void MemoryHierarchy::reset_counters() {
    for (std::int64_t s = 0; s < segments(); ++s) reset_segment_counters(s);
}

void MemoryHierarchy::reset_segment_counters(std::int64_t segment) {
    SPMV_EXPECTS(segment >= 0 && segment < segments());
    l2_counters_[static_cast<std::size_t>(segment)] = L2Counters{};
    const std::int64_t first = segment * config_.cores_per_numa;
    const std::int64_t last =
        std::min(config_.cores, first + config_.cores_per_numa);
    for (auto core = static_cast<std::size_t>(first);
         core < static_cast<std::size_t>(last); ++core) {
        l1_counters_[core] = L1Counters{};
        core_counters_[core] = CoreCounters{};
    }
}

L1Counters MemoryHierarchy::l1_total() const {
    L1Counters total;
    for (const auto& c : l1_counters_) total += c;
    return total;
}

L2Counters MemoryHierarchy::l2_total() const {
    L2Counters total;
    for (const auto& c : l2_counters_) total += c;
    return total;
}

const L2Counters& MemoryHierarchy::l2_segment(std::int64_t segment) const {
    SPMV_EXPECTS(segment >= 0 && segment < segments());
    return l2_counters_[static_cast<std::size_t>(segment)];
}

const CoreCounters& MemoryHierarchy::core_counters(std::uint32_t core) const {
    SPMV_EXPECTS(core < core_counters_.size());
    return core_counters_[core];
}

const SectorCache& MemoryHierarchy::l1_cache(std::uint32_t core) const {
    SPMV_EXPECTS(core < l1_.size());
    return l1_[core];
}

const SectorCache& MemoryHierarchy::l2_cache(std::int64_t segment) const {
    SPMV_EXPECTS(segment >= 0 && segment < segments());
    return l2_[static_cast<std::size_t>(segment)];
}

}  // namespace spmvcache
