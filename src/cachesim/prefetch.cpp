#include "cachesim/prefetch.hpp"

#include "util/error.hpp"

namespace spmvcache {

StreamPrefetcher::StreamPrefetcher(const PrefetchConfig& config)
    : config_(config) {
    SPMV_EXPECTS(config.streams >= 1);
    streams_.resize(config.streams);
    recent_.fill(~std::uint64_t{0});
}

void StreamPrefetcher::observe(std::uint64_t line,
                               std::vector<std::uint64_t>& targets) {
    if (!config_.enabled || config_.distance == 0) return;
    ++clock_;

    // Find a stream whose head is within the match window of this access
    // (ahead of the head = the stream advanced; behind = a lagging
    // observation of the same stream, which must not spawn a duplicate).
    const std::uint64_t window = config_.match_window;
    Stream* match = nullptr;
    Stream* lru = &streams_[0];
    for (Stream& s : streams_) {
        if (!s.valid) {
            lru = &s;
            continue;
        }
        if (s.stamp < lru->stamp) lru = &s;
        const std::uint64_t head = s.last_line;
        if (line + window >= head && line <= head + window) {
            match = &s;
            break;
        }
    }

    if (match == nullptr) {
        // Allocation filter: a stream is allocated only when the miss is
        // adjacent to a recently seen miss, so isolated (e.g. random
        // x-vector) misses cannot thrash the stream table. The new stream
        // stays quiet until its next advance confirms the direction —
        // re-misses of recently consumed lines otherwise spawn spurious
        // (typically descending) streams that refetch dead data.
        std::int8_t direction = 0;
        for (const std::uint64_t recent : recent_) {
            if (recent == ~std::uint64_t{0}) continue;
            if (line == recent + 1) direction = 1;
            if (line + 1 == recent) direction = -1;
        }
        recent_[recent_cursor_] = line;
        recent_cursor_ = (recent_cursor_ + 1) % recent_.size();
        if (direction == 0) return;

        *lru = Stream{line, line, direction, true, clock_};
        return;
    }

    Stream& s = *match;
    s.stamp = clock_;
    // Only accesses ahead of the head advance the stream; lagging
    // observations just keep it alive.
    const bool advances =
        s.direction > 0 ? line > s.last_line : line < s.last_line;
    if (!advances) return;
    s.last_line = line;
    issue(s, targets);
}

void StreamPrefetcher::issue(Stream& s,
                             std::vector<std::uint64_t>& targets) {
    // Pull the frontier toward `distance` lines ahead of the stream head,
    // at most max_issue_per_access lines per triggering access (the ramp).
    std::uint32_t issued = 0;
    if (s.direction > 0) {
        if (s.frontier < s.last_line) s.frontier = s.last_line;
        const std::uint64_t goal = s.last_line + config_.distance;
        while (s.frontier < goal && issued < config_.max_issue_per_access) {
            targets.push_back(++s.frontier);
            ++issued;
        }
    } else {
        if (s.frontier > s.last_line) s.frontier = s.last_line;
        const std::uint64_t goal = s.last_line > config_.distance
                                       ? s.last_line - config_.distance
                                       : 0;
        while (s.frontier > goal && issued < config_.max_issue_per_access) {
            targets.push_back(--s.frontier);
            ++issued;
        }
    }
}

}  // namespace spmvcache
