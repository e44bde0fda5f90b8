// Overflow-checked integer arithmetic.
//
// The model's outputs are exact integer accounting: trace lengths derived
// from nnz, per-shard miss counters summed across segments, byte counts
// multiplied out of rows/cols. A silent wrap or narrowing conversion on a
// SuiteSparse-scale matrix corrupts the prediction without failing any
// test, so every hot integer path funnels through these helpers:
//
//   * bool flavours (out-parameter) for hot paths — no allocation, pair
//     them with SPMV_EXPECTS:       SPMV_EXPECTS(checked_mul(a, b, out));
//     a wrap throws ContractViolation (util/error.hpp) in every build, so
//     the request fails instead of returning a wrapped number;
//   * Result<T> flavours for Status-plumbed paths (parsers, public
//     entry points):                SPMV_ASSIGN_OR_RETURN(auto n,
//                                       checked_mul(rows, cols));
//   * checked_narrow<To> replaces static_cast where the value crosses a
//     width or signedness boundary;
//   * checked_to_double guards the int -> double conversions in the
//     analytic s1/s2 terms (exact only up to 2^53).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "util/error.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Integer types the checked helpers accept (bool arithmetic is a bug).
template <typename T>
concept CheckedInt = std::is_integral_v<T> && !std::is_same_v<T, bool>;

namespace detail {

template <CheckedInt T>
[[nodiscard]] std::string fmt_int(T v) {
    if constexpr (std::is_signed_v<T>)
        return std::to_string(static_cast<long long>(v));
    else
        return std::to_string(static_cast<unsigned long long>(v));
}

template <CheckedInt A, CheckedInt B>
[[nodiscard]] inline Error overflow_error(const char* op, A a, B b) {
    return Error(ErrorCode::OverflowError, std::string(op) + "(" +
                                               fmt_int(a) + ", " + fmt_int(b) +
                                               ") overflows");
}

}  // namespace detail

/// a + b without wrapping; false (out untouched on GCC/Clang semantics:
/// out holds the wrapped value, do not read it) on overflow.
template <CheckedInt T>
[[nodiscard]] constexpr bool checked_add(T a, T b, T& out) noexcept {
    return !__builtin_add_overflow(a, b, &out);
}

/// a - b without wrapping (notably: unsigned a < b).
template <CheckedInt T>
[[nodiscard]] constexpr bool checked_sub(T a, T b, T& out) noexcept {
    return !__builtin_sub_overflow(a, b, &out);
}

/// a * b without wrapping.
template <CheckedInt T>
[[nodiscard]] constexpr bool checked_mul(T a, T b, T& out) noexcept {
    return !__builtin_mul_overflow(a, b, &out);
}

/// v converted to To; false when the value is outside To's range (width
/// loss or negative -> unsigned).
template <CheckedInt To, CheckedInt From>
[[nodiscard]] constexpr bool checked_narrow(From v, To& out) noexcept {
    if (!std::in_range<To>(v)) return false;
    out = static_cast<To>(v);
    return true;
}

/// Result flavour of checked_add for Status-plumbed code.
template <CheckedInt T>
[[nodiscard]] Result<T> checked_add(T a, T b) {
    T out{};
    if (!checked_add(a, b, out)) return detail::overflow_error("add", a, b);
    return out;
}

/// Result flavour of checked_sub.
template <CheckedInt T>
[[nodiscard]] Result<T> checked_sub(T a, T b) {
    T out{};
    if (!checked_sub(a, b, out)) return detail::overflow_error("sub", a, b);
    return out;
}

/// Result flavour of checked_mul.
template <CheckedInt T>
[[nodiscard]] Result<T> checked_mul(T a, T b) {
    T out{};
    if (!checked_mul(a, b, out)) return detail::overflow_error("mul", a, b);
    return out;
}

/// Result flavour of checked_narrow.
template <CheckedInt To, CheckedInt From>
[[nodiscard]] Result<To> checked_narrow(From v) {
    To out{};
    if (!checked_narrow(v, out))
        return Error(ErrorCode::OverflowError,
                     "value " + detail::fmt_int(v) + " does not fit in [" +
                         detail::fmt_int(std::numeric_limits<To>::min()) +
                         ", " +
                         detail::fmt_int(std::numeric_limits<To>::max()) +
                         "]");
    return out;
}

/// Largest magnitude a double holds exactly: every integer in
/// [-2^53, 2^53] round-trips, nothing beyond is guaranteed to.
inline constexpr std::int64_t kMaxExactDouble = std::int64_t{1} << 53;

/// True when int64 -> double loses nothing for this value.
[[nodiscard]] constexpr bool exactly_representable(std::int64_t v) noexcept {
    return v >= -kMaxExactDouble && v <= kMaxExactDouble;
}

/// int64 -> double conversion that throws ContractViolation unless the
/// value is exact; the analytic s1/s2 factors divide two of these, so a
/// rounded operand would silently bias every method-(B) prediction.
[[nodiscard]] inline double checked_to_double(std::int64_t v) {
    SPMV_EXPECTS(exactly_representable(v));
    return static_cast<double>(v);
}

}  // namespace spmvcache
