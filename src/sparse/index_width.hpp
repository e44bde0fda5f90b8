// Runtime index-width selection for the CSR/SELL storage pipeline.
//
// The repository supports two physical index layouts, in the spirit of
// ellspmv's compile-time IDXTYPEWIDTH switch — but resolved at *runtime*,
// per matrix:
//
//   W32  4-byte column indices (int32) + 4-byte row pointers (uint32)
//   W64  8-byte column indices (int64) + 8-byte row pointers (int64)
//
// A matrix narrows to W32 whenever rows, cols and nnz all fit the 32-bit
// layout; the bandwidth-bound SpMV kernel then streams half the index
// bytes per nonzero and the `.spmvc` cache entry shrinks by ~1/3. The
// colidx element stays *signed* 32-bit so the AVX2/AVX-512 i32 gathers
// are safe without masking, which bounds cols at INT32_MAX rather than
// UINT32_MAX; row ids (SELL permutations, trace cursors) reuse the same
// signed element, bounding rows identically; rowptr is unsigned, so nnz
// may use the full 32-bit range.
//
// Everything that stores or streams indices is templated on one of the
// two tag types below (Idx32/Idx64); pipeline boundaries that must pick a
// width at runtime carry an IndexWidth (resolved) or IndexWidthChoice
// (requested) and dispatch through sparse/any_csr.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/checked.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Physical index layout of a concrete matrix (resolved).
enum class IndexWidth : std::uint8_t { W32 = 32, W64 = 64 };

/// Requested index layout (CLI --index-width {auto,32,64}).
enum class IndexWidthChoice : std::uint8_t { Auto, W32, W64 };

/// Narrow 32-bit layout: the default for every representable matrix.
struct Idx32 {
    using index_type = std::int32_t;    ///< colidx element (gather-safe)
    using offset_type = std::uint32_t;  ///< rowptr element
    static constexpr IndexWidth width = IndexWidth::W32;
};

/// Wide 64-bit layout: the fallback for matrices beyond the W32 bounds.
struct Idx64 {
    using index_type = std::int64_t;
    using offset_type = std::int64_t;
    static constexpr IndexWidth width = IndexWidth::W64;
};

[[nodiscard]] constexpr const char* to_string(IndexWidth w) noexcept {
    return w == IndexWidth::W32 ? "32" : "64";
}

[[nodiscard]] constexpr const char* to_string(IndexWidthChoice c) noexcept {
    switch (c) {
        case IndexWidthChoice::Auto: return "auto";
        case IndexWidthChoice::W32: return "32";
        case IndexWidthChoice::W64: return "64";
    }
    return "auto";
}

/// Build-configured default for the runtime choice (cmake
/// `SPMV_DEFAULT_INDEX_WIDTH={auto,32,64}`, mapped to 0/32/64 here).
/// Pipeline entry points (MmReadOptions, MatrixSource) default to this,
/// so a 32-forced build runs the whole tier-1 suite through the narrow
/// pipeline without touching any call site; --index-width overrides per
/// invocation as usual.
#ifndef SPMV_DEFAULT_INDEX_WIDTH_VALUE
#define SPMV_DEFAULT_INDEX_WIDTH_VALUE 0
#endif

[[nodiscard]] constexpr IndexWidthChoice default_index_width_choice() noexcept {
    static_assert(SPMV_DEFAULT_INDEX_WIDTH_VALUE == 0 ||
                      SPMV_DEFAULT_INDEX_WIDTH_VALUE == 32 ||
                      SPMV_DEFAULT_INDEX_WIDTH_VALUE == 64,
                  "SPMV_DEFAULT_INDEX_WIDTH_VALUE must be 0 (auto), 32 or 64");
    return SPMV_DEFAULT_INDEX_WIDTH_VALUE == 32   ? IndexWidthChoice::W32
           : SPMV_DEFAULT_INDEX_WIDTH_VALUE == 64 ? IndexWidthChoice::W64
                                                  : IndexWidthChoice::Auto;
}

/// Parses "auto", "32" or "64" (ValidationError otherwise).
[[nodiscard]] inline Result<IndexWidthChoice> parse_index_width_choice(
    std::string_view text) {
    if (text == "auto") return IndexWidthChoice::Auto;
    if (text == "32") return IndexWidthChoice::W32;
    if (text == "64") return IndexWidthChoice::W64;
    return Error(ErrorCode::ValidationError,
                 "invalid index width '" + std::string(text) +
                     "' (expected auto, 32 or 64)");
}

/// Bytes of one colidx element at width `w`.
[[nodiscard]] constexpr std::uint32_t colidx_width_bytes(IndexWidth w) noexcept {
    return w == IndexWidth::W32 ? sizeof(Idx32::index_type)
                                : sizeof(Idx64::index_type);
}

/// Bytes of one rowptr element at width `w`.
[[nodiscard]] constexpr std::uint32_t rowptr_width_bytes(IndexWidth w) noexcept {
    return w == IndexWidth::W32 ? sizeof(Idx32::offset_type)
                                : sizeof(Idx64::offset_type);
}

/// True when an (rows, cols, nnz) shape fits the W32 layout: rowptr holds
/// nnz in uint32, and every row or column id fits int32 (gather-safe, and
/// narrow enough for SELL permutations). Pure — callable on synthetic
/// shapes without allocating anything.
[[nodiscard]] constexpr bool width32_representable(std::int64_t rows,
                                                   std::int64_t cols,
                                                   std::int64_t nnz) noexcept {
    return rows >= 0 && cols >= 0 && nnz >= 0 &&
           rows <= static_cast<std::int64_t>(
                       std::numeric_limits<std::int32_t>::max()) &&
           cols <= static_cast<std::int64_t>(
                       std::numeric_limits<std::int32_t>::max()) &&
           nnz <= static_cast<std::int64_t>(
                      std::numeric_limits<std::uint32_t>::max());
}

/// Resolves a requested width against a concrete shape: Auto narrows to
/// W32 whenever the shape fits and widens to W64 otherwise; a forced W32
/// on an unrepresentable shape is a typed UnsupportedError naming the
/// violated bound (raised before any allocation happens).
[[nodiscard]] inline Result<IndexWidth> resolve_index_width(
    IndexWidthChoice choice, std::int64_t rows, std::int64_t cols,
    std::int64_t nnz) {
    const bool fits = width32_representable(rows, cols, nnz);
    switch (choice) {
        case IndexWidthChoice::Auto:
            return fits ? IndexWidth::W32 : IndexWidth::W64;
        case IndexWidthChoice::W64:
            return IndexWidth::W64;
        case IndexWidthChoice::W32:
            if (fits) return IndexWidth::W32;
            return Error(
                ErrorCode::UnsupportedError,
                "matrix does not fit the 32-bit index layout (rows " +
                    std::to_string(rows) + ", cols " + std::to_string(cols) +
                    ", nnz " + std::to_string(nnz) +
                    " vs bounds rows <= 2^31-1, cols <= 2^31-1, nnz <= "
                    "2^32-1); use --index-width auto or 64");
    }
    return Error(ErrorCode::ValidationError, "invalid index width choice");
}

/// Bytes of the §3.1 working set of a rows x cols matrix holding nnz
/// entries as CSR at `width`: values, colidx and rowptr plus x (cols
/// doubles) and y (rows doubles). A shape whose x, y or sum does not fit
/// int64 cannot be addressed; the readers refuse it with the
/// OverflowError this returns. Pre: rows, cols, nnz >= 0.
[[nodiscard]] inline Result<std::int64_t> checked_working_set_bytes(
    std::int64_t rows, std::int64_t cols, std::int64_t nnz,
    IndexWidth width) {
    constexpr auto kDouble = static_cast<std::int64_t>(sizeof(double));
    std::int64_t x = 0;
    std::int64_t y = 0;
    if (!checked_mul(cols, kDouble, x))
        return Error(ErrorCode::OverflowError,
                     "x of " + std::to_string(cols) +
                         " doubles overflows int64 bytes");
    if (!checked_mul(rows, kDouble, y))
        return Error(ErrorCode::OverflowError,
                     "y of " + std::to_string(rows) +
                         " doubles overflows int64 bytes");
    const std::int64_t entry_bytes = kDouble + colidx_width_bytes(width);
    std::int64_t entries = 0;
    std::int64_t offsets = 0;
    std::int64_t sum = 0;
    if (!checked_mul(nnz, entry_bytes, entries) ||
        !checked_add(rows, std::int64_t{1}, offsets) ||
        !checked_mul(offsets, std::int64_t{rowptr_width_bytes(width)},
                     offsets) ||
        !checked_add(x, y, sum) || !checked_add(sum, entries, sum) ||
        !checked_add(sum, offsets, sum))
        return Error(ErrorCode::OverflowError,
                     "working set of " + std::to_string(rows) + " x " +
                         std::to_string(cols) + " with " +
                         std::to_string(nnz) +
                         " entries overflows int64 bytes");
    return sum;
}

}  // namespace spmvcache
