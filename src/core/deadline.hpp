// One wall-clock deadline mechanism for every per-request budget in the
// tree: `spmvcache batch` items, one-shot `predict`/`tune` runs with
// --timeout, and each `spmvcache serve` request all funnel through
// run_with_deadline so timeout semantics (and their caveats) stay in one
// place.
//
// The budgeted function runs on a helper thread; on expiry the helper is
// *detached* and TimeoutError returned — threads cannot be killed portably,
// so a runaway computation may keep a core busy until it finishes on its
// own, but the caller regains control immediately. Because the helper can
// outlive the call, `fn` must own everything it touches (capture matrices
// via shared_ptr or by value, never by reference to caller stack).
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <thread>

#include "util/status.hpp"

namespace spmvcache {

/// The longest wait run_with_deadline makes (about 31 years). A longer
/// budget, up to inf, waits this long: converted to the clock's ticks it
/// would overflow and expire at once.
inline constexpr double kLongestDeadlineSeconds = 1e9;

/// Runs `fn` under a wall-clock budget of `seconds` (<= 0 or NaN = no
/// budget, run inline). Returns fn's Result, or TimeoutError on expiry.
/// Exceptions escaping `fn` are mapped to typed errors (never rethrown).
template <typename T>
[[nodiscard]] Result<T> run_with_deadline(double seconds,
                                          std::function<Result<T>()> fn) {
    const auto guarded = [fn = std::move(fn)]() -> Result<T> {
        try {
            return fn();
        } catch (const std::exception& e) {
            return error_from_exception(e);
        } catch (...) {
            return Error(ErrorCode::InternalError, "unknown exception");
        }
    };
    if (!(seconds > 0.0)) return guarded();

    std::packaged_task<Result<T>()> task(guarded);
    std::future<Result<T>> future = task.get_future();
    std::thread worker(std::move(task));
    const auto budget = std::chrono::duration<double>(
        std::min(seconds, kLongestDeadlineSeconds));
    if (future.wait_for(budget) == std::future_status::ready) {
        worker.join();
        return future.get();
    }
    worker.detach();
    return Error(ErrorCode::TimeoutError,
                 "exceeded wall-clock budget of " + std::to_string(seconds) +
                     " s");
}

}  // namespace spmvcache
