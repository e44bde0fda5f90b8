// Compressed Sparse Row matrix with the exact memory layout the paper
// analyses (§3.1): 8-byte double values (`a`), plus column indices and row
// pointers whose element width is a runtime property of the pipeline
// (sparse/index_width.hpp). The default `CsrMatrix` uses the narrow W32
// layout — 4-byte int32 colidx, 4-byte uint32 rowptr — and `CsrMatrix64`
// is the wide fallback for shapes beyond the 32-bit bounds. All three
// arrays are aligned to A64FX cache-line (256 B) boundaries so the host
// kernels, trace generator and simulator share one notion of line
// boundaries.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sparse/index_width.hpp"
#include "util/align.hpp"
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

template <class Idx>
class BasicCsrBuilder;

/// Immutable CSR matrix at index width `Idx` (Idx32 or Idx64); build via
/// BasicCsrBuilder or CooMatrix::to_csr().
template <class Idx>
class BasicCsrMatrix {
public:
    using value_type = double;
    using index_type = typename Idx::index_type;
    using offset_type = typename Idx::offset_type;
    using idx_tag = Idx;

    BasicCsrMatrix() = default;

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
        return {rowptr_.data(), rowptr_.size()};
    }
    [[nodiscard]] std::span<const index_type> colidx() const noexcept {
        return {colidx_.data(), colidx_.size()};
    }
    [[nodiscard]] std::span<const value_type> values() const noexcept {
        return {values_.data(), values_.size()};
    }

    /// Number of nonzeros in row r. Pre: 0 <= r < rows().
    [[nodiscard]] std::int64_t row_nnz(std::int64_t r) const {
        SPMV_EXPECTS(r >= 0 && r < rows_);
        return static_cast<std::int64_t>(
            rowptr_[static_cast<std::size_t>(r) + 1] -
            rowptr_[static_cast<std::size_t>(r)]);
    }

    /// Byte sizes of the individual arrays (as used by the paper's
    /// working-set classification in §3.1).
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

    /// Checks structural invariants (monotone rowptr, indices in range,
    /// sorted columns within each row). Throws ContractViolation on failure.
    void validate() const;

    /// Typed form of validate() for input pipelines: never throws, reports
    /// the first violated invariant (with the offending row) as a
    /// ValidationError Status.
    [[nodiscard]] Status check() const;

    /// Returns a new matrix with rows and columns permuted by `perm`,
    /// where perm[new_index] = old_index. Pre: square matrix, perm is a
    /// permutation of [0, rows()).
    [[nodiscard]] BasicCsrMatrix permuted_symmetric(
        std::span<const index_type> perm) const;

private:
    friend class BasicCsrBuilder<Idx>;
    friend class CooMatrix;  // moves or scatters its arrays in

    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    aligned_vector<offset_type> rowptr_;
    aligned_vector<index_type> colidx_;
    aligned_vector<value_type> values_;
};

/// The pipeline default: narrow 32-bit indices (every representable
/// matrix), and the wide fallback.
using CsrMatrix = BasicCsrMatrix<Idx32>;
using CsrMatrix64 = BasicCsrMatrix<Idx64>;

/// Row-by-row CSR assembler. Entries must be pushed in row-major order
/// (ties on row must have strictly increasing columns).
template <class Idx>
class BasicCsrBuilder {
public:
    using index_type = typename Idx::index_type;
    using offset_type = typename Idx::offset_type;

    /// Pre: rows, cols >= 0; the shape fits the Idx layout (rows+1 rowptr
    /// slots, cols representable as index_type).
    BasicCsrBuilder(std::int64_t rows, std::int64_t cols,
                    std::size_t nnz_hint = 0);

    /// Appends one entry; rows must be non-decreasing, columns strictly
    /// increasing within a row. Pre: the running nonzero count stays
    /// representable as offset_type.
    void push(std::int64_t row, std::int64_t col, double value);

    /// Finalises trailing empty rows and yields the matrix.
    [[nodiscard]] BasicCsrMatrix<Idx> finish() &&;

private:
    [[nodiscard]] offset_type checked_nnz() const {
        SPMV_EXPECTS(m_.colidx_.size() <=
                     static_cast<std::size_t>(
                         std::numeric_limits<offset_type>::max()));
        return static_cast<offset_type>(m_.colidx_.size());
    }

    BasicCsrMatrix<Idx> m_;
    std::int64_t current_row_ = 0;
    std::int64_t last_col_ = -1;
};

using CsrBuilder = BasicCsrBuilder<Idx32>;
using CsrBuilder64 = BasicCsrBuilder<Idx64>;

/// Rebuilds a matrix at another index width (used by the width-forcing
/// paths: generators always assemble narrow, benches and differential
/// tests widen explicitly). Pre: the shape fits `To` — always true when
/// widening.
template <class To, class FromView>
[[nodiscard]] BasicCsrMatrix<To> convert_csr_width(const FromView& m) {
    BasicCsrBuilder<To> builder(m.rows(), m.cols(),
                                static_cast<std::size_t>(m.nnz()));
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    const auto values = m.values();
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        for (auto i = static_cast<std::int64_t>(
                 rowptr[static_cast<std::size_t>(r)]);
             i < static_cast<std::int64_t>(
                     rowptr[static_cast<std::size_t>(r) + 1]);
             ++i) {
            builder.push(r,
                         static_cast<std::int64_t>(
                             colidx[static_cast<std::size_t>(i)]),
                         values[static_cast<std::size_t>(i)]);
        }
    }
    return std::move(builder).finish();
}

/// Builds a small dense row-major reference of the matrix (tests only).
/// Pre: rows*cols small enough to allocate.
template <class Idx>
[[nodiscard]] std::vector<double> to_dense(const BasicCsrMatrix<Idx>& m);

extern template class BasicCsrMatrix<Idx32>;
extern template class BasicCsrMatrix<Idx64>;
extern template class BasicCsrBuilder<Idx32>;
extern template class BasicCsrBuilder<Idx64>;
extern template std::vector<double> to_dense<Idx32>(const CsrMatrix&);
extern template std::vector<double> to_dense<Idx64>(const CsrMatrix64&);

}  // namespace spmvcache
