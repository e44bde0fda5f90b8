// Deterministic fault injection for robustness tests and chaos runs.
//
// Library code declares *named injection points*; tests arm them by name
// with a fail-after-N counter or a seeded Bernoulli trigger. Disarmed,
// every point is a single relaxed atomic load and a predicted-not-taken
// branch, so points can sit on hot paths (the reuse engine checks one per
// access).
//
//   // library code
//   SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.read_entry"));   // Status path
//   fault::maybe_throw("trace.generate");                       // throwing path
//
//   // test code
//   fault::ScopedFault f("mm.read_entry", {.fail_after = 3});
//   ... third entry read reports ErrorCode::FaultInjected ...
//
// Every library point name is listed in util/fault_points.hpp (the
// central registry): arm() throws ContractViolation on any other name, and
// spmv-lint's `unknown-fault-point` rule cross-checks the literals at the
// injection sites, so a typo'd point cannot silently never fire.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace spmvcache::fault {

/// How an armed point decides to fire.
struct FaultSpec {
    /// Fire on the (fail_after+1)-th hit of the point (0 = first hit).
    std::int64_t fail_after = 0;
    /// If < 1.0, fire per-hit with this probability instead of the counter,
    /// drawn from a PRNG seeded with `seed` (deterministic across runs).
    double probability = 1.0;
    std::uint64_t seed = 0;
    /// Disarm the point after its first firing (one-shot faults).
    bool once = true;
    /// Error code reported by maybe_fail / FaultInjectedError.
    ErrorCode code = ErrorCode::FaultInjected;
};

/// Arms `point`; replaces any previous spec and resets its hit counter.
void arm(std::string point, FaultSpec spec = {});

/// Disarms one point (no-op if not armed).
void disarm(const std::string& point);

/// Disarms everything and resets all hit counters.
void disarm_all();

namespace detail {

/// Number of armed points: the one load the disarmed fast path makes.
extern std::atomic<std::int64_t> armed_points;

/// The armed paths of should_fail, maybe_fail and maybe_throw.
[[nodiscard]] bool should_fail_armed(const char* point);
[[nodiscard]] Status fail_armed(const char* point);
void throw_armed(const char* point);

}  // namespace detail

/// True if any point is armed (the slow path is reachable).
[[nodiscard]] inline bool any_armed() noexcept {
    return detail::armed_points.load(std::memory_order_relaxed) > 0;
}

/// Hits recorded for `point` since it was last armed (0 if never armed).
[[nodiscard]] std::int64_t hits(const std::string& point);

/// Counts a hit; true when the armed spec decides this hit fails.
/// Disarmed points return false after one atomic load.
[[nodiscard]] inline bool should_fail(const char* point) {
    return any_armed() && detail::should_fail_armed(point);
}

/// Status-returning form for Status/Result pipelines.
[[nodiscard]] inline Status maybe_fail(const char* point) {
    if (!any_armed()) return OkStatus();
    return detail::fail_armed(point);
}

/// Thrown by maybe_throw; carries the typed Error (code FaultInjected).
class FaultInjectedError : public StatusError {
public:
    using StatusError::StatusError;
};

/// Throwing form for hot paths that return plain values.
inline void maybe_throw(const char* point) {
    if (any_armed()) detail::throw_armed(point);
}

/// RAII arming for tests: arms in the constructor, disarms in the
/// destructor even if the test body throws.
class ScopedFault {
public:
    explicit ScopedFault(std::string point, FaultSpec spec = {});
    ~ScopedFault();

    ScopedFault(const ScopedFault&) = delete;
    ScopedFault& operator=(const ScopedFault&) = delete;

private:
    std::string point_;
};

}  // namespace spmvcache::fault
