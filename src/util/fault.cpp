#include "util/fault.hpp"

#include <atomic>
#include <map>
#include <utility>

#include "util/annotated_mutex.hpp"
#include "util/error.hpp"
#include "util/fault_points.hpp"
#include "util/prng.hpp"

namespace spmvcache::fault {

namespace {

struct PointState {
    FaultSpec spec;
    std::int64_t hits = 0;
    Xoshiro256 prng{0};
    bool fired = false;
};

struct Registry {
    Mutex mutex;
    std::map<std::string, PointState> points SPMV_GUARDED_BY(mutex);
};

Registry& registry() {
    static Registry r;
    return r;
}

}  // namespace

// The disarmed fast path (fault.hpp) is one relaxed load of this counter,
// so hot loops (reuse engine, entry merge) pay a single predictable branch.
std::atomic<std::int64_t> detail::armed_points{0};

void arm(std::string point, FaultSpec spec) {
    // A typo'd point would arm a trigger no library code ever checks —
    // exactly the dead-point bug the registry exists to catch. Test-local
    // "t." points are exempt by convention (see util/fault_points.hpp).
    SPMV_EXPECTS(is_registered_point(point) || is_test_point(point));
    auto& r = registry();
    const MutexLock lock(r.mutex);
    auto [it, inserted] = r.points.insert_or_assign(
        std::move(point), PointState{spec, 0, Xoshiro256(spec.seed), false});
    (void)it;
    if (inserted) detail::armed_points.fetch_add(1, std::memory_order_relaxed);
}

void disarm(const std::string& point) {
    auto& r = registry();
    const MutexLock lock(r.mutex);
    if (r.points.erase(point) > 0)
        detail::armed_points.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
    auto& r = registry();
    const MutexLock lock(r.mutex);
    detail::armed_points.fetch_sub(
        static_cast<std::int64_t>(r.points.size()), std::memory_order_relaxed);
    r.points.clear();
}

std::int64_t hits(const std::string& point) {
    auto& r = registry();
    const MutexLock lock(r.mutex);
    const auto it = r.points.find(point);
    return it == r.points.end() ? 0 : it->second.hits;
}

bool detail::should_fail_armed(const char* point) {
    auto& r = registry();
    const MutexLock lock(r.mutex);
    const auto it = r.points.find(point);
    if (it == r.points.end()) return false;
    PointState& state = it->second;
    if (state.fired && state.spec.once) return false;
    const std::int64_t hit = state.hits++;
    bool fire;
    if (state.spec.probability < 1.0) {
        fire = state.prng.uniform() < state.spec.probability;
    } else {
        fire = hit >= state.spec.fail_after;
    }
    if (fire) state.fired = true;
    return fire;
}

namespace {

ErrorCode armed_code(const char* point) {
    auto& r = registry();
    const MutexLock lock(r.mutex);
    const auto it = r.points.find(point);
    return it == r.points.end() ? ErrorCode::FaultInjected
                                : it->second.spec.code;
}

Error make_error(const char* point) {
    return Error(armed_code(point),
                 std::string("injected fault at '") + point + "'");
}

}  // namespace

[[nodiscard]] Status detail::fail_armed(const char* point) {
    if (!should_fail_armed(point)) return OkStatus();
    return make_error(point);
}

void detail::throw_armed(const char* point) {
    if (!should_fail_armed(point)) return;
    throw FaultInjectedError(make_error(point));
}

ScopedFault::ScopedFault(std::string point, FaultSpec spec)
    : point_(std::move(point)) {
    arm(point_, spec);
}

ScopedFault::~ScopedFault() { disarm(point_); }

}  // namespace spmvcache::fault
