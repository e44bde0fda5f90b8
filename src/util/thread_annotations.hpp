// Clang thread-safety analysis annotations (no-ops on other compilers).
//
// The locality model's reproduction contract is *bit-identical* parallel
// results (sharded model, parallel parser, serve daemon), so a lock-
// discipline bug is a silent correctness bug, not just a crash. TSan only
// proves the interleavings the test suite happens to exercise; these
// macros let Clang's `-Wthread-safety` analysis prove lock discipline on
// every build instead (the CI `clang-thread-safety` job compiles the full
// tree with `-Werror=thread-safety`).
//
// Usage pattern (see util/annotated_mutex.hpp for the annotated wrappers):
//
//   class Counters {
//       mutable Mutex mutex_;
//       std::uint64_t hits_ SPMV_GUARDED_BY(mutex_) = 0;
//       void bump_locked() SPMV_REQUIRES(mutex_);
//   };
//
// Every macro expands to the corresponding `capability` attribute under
// Clang and to nothing elsewhere; tests/data/lint_thread/ is a negative-
// compile corpus (run via ctest) proving the attributes actually fire, so
// they can never silently decay to no-ops on the analysis toolchain.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define SPMV_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef SPMV_THREAD_ANNOTATION_
#define SPMV_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// A type that acts as a lock (e.g. a mutex). `x` names the capability
/// kind in diagnostics ("mutex").
#define SPMV_CAPABILITY(x) SPMV_THREAD_ANNOTATION_(capability(x))

/// An RAII type that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock).
#define SPMV_SCOPED_CAPABILITY SPMV_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define SPMV_GUARDED_BY(x) SPMV_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define SPMV_PT_GUARDED_BY(x) SPMV_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function that must be called while holding the listed capabilities
/// (the "_locked" private-helper convention).
#define SPMV_REQUIRES(...) \
    SPMV_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function that must NOT be called while holding the listed capabilities
/// (self-deadlock documentation for public entry points).
#define SPMV_EXCLUDES(...) SPMV_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function that acquires the capability and holds it past return.
#define SPMV_ACQUIRE(...) \
    SPMV_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define SPMV_RELEASE(...) \
    SPMV_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns `b`.
#define SPMV_TRY_ACQUIRE(b, ...) \
    SPMV_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// Function returning a reference to the capability guarding its result.
#define SPMV_RETURN_CAPABILITY(x) SPMV_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch for lock *implementations*: the declared ACQUIRE/RELEASE
/// effects still apply at call sites, but the body (which manipulates the
/// unannotated std primitive) is not analysed.
#define SPMV_NO_THREAD_SAFETY_ANALYSIS \
    SPMV_THREAD_ANNOTATION_(no_thread_safety_analysis)
