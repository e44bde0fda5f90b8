// Read-only CSR matrix: the one read API of the sparse layer.
//
// The paper's pipeline (trace generation, reuse-distance replay, kernels,
// statistics, fingerprinting) only ever *reads* the three CSR arrays of
// Listing 1 — rowptr, colidx and the values `a` — plus the §3.1
// working-set byte terms. A BasicCsrView carries spans over those arrays
// plus the dimensions, so its consumers do not care who owns the bytes:
// a BasicCsrMatrix (sparse/csr.hpp), which derives from the view of its
// own aligned arrays, or a read-only mmap of a `.spmvc` binary cache file
// (sparse/binary_cache.hpp). A function template taking
// `const BasicCsrView<Idx>&` deduces Idx from an owning matrix through
// that base class. `CsrView` aliases the narrow default width;
// `CsrView64` the wide fallback (sparse/index_width.hpp).
//
// Lifetime: a view never keeps anything alive. Pair it with whatever owns
// the storage (BasicCsrMatrix, MappedCsr, LoadedMatrix) for any use that
// outlives the owner's scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sparse/index_width.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace spmvcache {

namespace detail {

/// `count` elements of `element_bytes` each, as a byte count that fits
/// int64; ContractViolation otherwise.
[[nodiscard]] inline std::uint64_t checked_bytes(std::int64_t count,
                                                 std::size_t element_bytes) {
    std::int64_t bytes = 0;
    SPMV_EXPECTS(checked_mul(count, static_cast<std::int64_t>(element_bytes),
                             bytes));
    return static_cast<std::uint64_t>(bytes);
}

/// checked_working_set_bytes of a shape the readers admitted;
/// ContractViolation for one they refuse.
[[nodiscard]] inline std::uint64_t admitted_working_set_bytes(
    std::int64_t rows, std::int64_t cols, std::int64_t nnz,
    IndexWidth width) {
    const Result<std::int64_t> bytes =
        checked_working_set_bytes(rows, cols, nnz, width);
    SPMV_EXPECTS(bytes.ok());
    return static_cast<std::uint64_t>(bytes.value());
}

}  // namespace detail

/// Read-only, non-owning CSR matrix view (see file comment).
template <class Idx>
class BasicCsrView {
public:
    using value_type = double;
    using index_type = typename Idx::index_type;
    using offset_type = typename Idx::offset_type;
    using idx_tag = Idx;

    BasicCsrView() = default;

    /// Views raw arrays. Pre: rowptr.size() == rows + 1, colidx.size() ==
    /// values.size() == rowptr.back(); or all three empty for 0 x 0.
    BasicCsrView(std::int64_t rows, std::int64_t cols,
                 std::span<const offset_type> rowptr,
                 std::span<const index_type> colidx,
                 std::span<const value_type> values) noexcept
        : rows_(rows),
          cols_(cols),
          rowptr_(rowptr),
          colidx_(colidx),
          values_(values) {}

    [[nodiscard]] static constexpr IndexWidth index_width() noexcept {
        return Idx::width;
    }

    [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::int64_t nnz() const noexcept {
        return rowptr_.empty() ? 0
                               : static_cast<std::int64_t>(rowptr_.back());
    }

    [[nodiscard]] std::span<const offset_type> rowptr() const noexcept {
        return rowptr_;
    }
    [[nodiscard]] std::span<const index_type> colidx() const noexcept {
        return colidx_;
    }
    [[nodiscard]] std::span<const value_type> values() const noexcept {
        return values_;
    }

    /// Number of nonzeros in row r. Pre: 0 <= r < rows().
    [[nodiscard]] std::int64_t row_nnz(std::int64_t r) const {
        SPMV_EXPECTS(r >= 0 && r < rows_);
        return static_cast<std::int64_t>(
            rowptr_[static_cast<std::size_t>(r) + 1] -
            rowptr_[static_cast<std::size_t>(r)]);
    }

    /// Byte sizes of the individual arrays (§3.1 working-set terms).
    [[nodiscard]] std::uint64_t values_bytes() const noexcept {
        return values_.size() * sizeof(value_type);
    }
    [[nodiscard]] std::uint64_t colidx_bytes() const noexcept {
        return colidx_.size() * sizeof(index_type);
    }
    [[nodiscard]] std::uint64_t rowptr_bytes() const noexcept {
        return rowptr_.size() * sizeof(offset_type);
    }
    /// Size of the input vector x (cols() doubles). These three throw
    /// ContractViolation for a shape whose byte count does not fit int64;
    /// the readers refuse such a shape at the door.
    [[nodiscard]] std::uint64_t x_bytes() const {
        return detail::checked_bytes(cols_, sizeof(value_type));
    }
    /// Size of the output vector y (rows() doubles).
    [[nodiscard]] std::uint64_t y_bytes() const {
        return detail::checked_bytes(rows_, sizeof(value_type));
    }
    /// Total working set: matrix arrays plus both vectors.
    [[nodiscard]] std::uint64_t working_set_bytes() const {
        return detail::admitted_working_set_bytes(rows_, cols_, nnz(),
                                                  Idx::width);
    }

private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::span<const offset_type> rowptr_;
    std::span<const index_type> colidx_;
    std::span<const value_type> values_;
};

using CsrView = BasicCsrView<Idx32>;
using CsrView64 = BasicCsrView<Idx64>;

/// Structural invariant check shared by BasicCsrMatrix::check() and the
/// binary cache loader: monotone rowptr, indices in range, strictly
/// increasing columns per row. Never throws; reports the first violation.
template <class Idx>
[[nodiscard]] Status check_csr_view(const BasicCsrView<Idx>& m);

extern template Status check_csr_view<Idx32>(const CsrView&);
extern template Status check_csr_view<Idx64>(const CsrView64&);

}  // namespace spmvcache
