// Compressed Sparse Row matrix with the exact memory layout the paper
// analyses (§3.1): 8-byte double values (`a`), plus column indices and row
// pointers whose element width is a runtime property of the pipeline
// (sparse/index_width.hpp). The default `CsrMatrix` uses the narrow W32
// layout — 4-byte int32 colidx, 4-byte uint32 rowptr — and `CsrMatrix64`
// is the wide fallback for shapes beyond the 32-bit bounds. All three
// arrays are aligned to A64FX cache-line (256 B) boundaries so the host
// kernels, trace generator and simulator share one notion of line
// boundaries.
//
// A BasicCsrMatrix owns those arrays and is the BasicCsrView of them
// (sparse/csr_view.hpp), so the read API is the view's: every consumer
// takes a view, and a matrix is one. Each change of owner (building,
// copying, moving, assigning) re-points the view at the arrays of the
// matrix that now holds them; a moved-from matrix is an empty 0 x 0 one.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr_view.hpp"
#include "sparse/index_width.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace spmvcache {

template <class Idx>
class BasicCsrBuilder;

/// Immutable CSR matrix at index width `Idx` (Idx32 or Idx64); build via
/// BasicCsrBuilder or CooMatrix::to_csr().
template <class Idx>
class BasicCsrMatrix : public BasicCsrView<Idx> {
public:
    using typename BasicCsrView<Idx>::value_type;
    using typename BasicCsrView<Idx>::index_type;
    using typename BasicCsrView<Idx>::offset_type;

    BasicCsrMatrix() = default;
    BasicCsrMatrix(const BasicCsrMatrix& o)
        : BasicCsrView<Idx>(),
          rowptr_(o.rowptr_),
          colidx_(o.colidx_),
          values_(o.values_) {
        bind(o.rows(), o.cols());
    }
    /// Keeps o's buffers; o becomes an empty 0 x 0 matrix.
    BasicCsrMatrix(BasicCsrMatrix&& o) noexcept
        : BasicCsrView<Idx>(),
          rowptr_(std::move(o.rowptr_)),
          colidx_(std::move(o.colidx_)),
          values_(std::move(o.values_)) {
        bind(o.rows(), o.cols());
        o.bind(0, 0);
    }
    /// Copy or move assignment: `o` is built by the matching constructor
    /// above, then hands its arrays over.
    BasicCsrMatrix& operator=(BasicCsrMatrix o) noexcept {
        rowptr_.swap(o.rowptr_);
        colidx_.swap(o.colidx_);
        values_.swap(o.values_);
        bind(o.rows(), o.cols());
        return *this;
    }

    /// Checks structural invariants (monotone rowptr, indices in range,
    /// sorted columns within each row). Throws ContractViolation on failure.
    void validate() const;

    /// Typed form of validate() for input pipelines: never throws, reports
    /// the first violated invariant (with the offending row) as a
    /// ValidationError Status.
    [[nodiscard]] Status check() const { return check_csr_view(*this); }

    /// Returns a new matrix with rows and columns permuted by `perm`,
    /// where perm[new_index] = old_index. Pre: square matrix, perm is a
    /// permutation of [0, rows()).
    [[nodiscard]] BasicCsrMatrix permuted_symmetric(
        std::span<const index_type> perm) const;

private:
    friend class BasicCsrBuilder<Idx>;
    friend class CooMatrix;  // moves or scatters its arrays in

    /// Re-points the view at this matrix's own arrays.
    void bind(std::int64_t rows, std::int64_t cols) noexcept {
        static_cast<BasicCsrView<Idx>&>(*this) = BasicCsrView<Idx>(
            rows, cols, {rowptr_.data(), rowptr_.size()},
            {colidx_.data(), colidx_.size()},
            {values_.data(), values_.size()});
    }

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
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
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
[[nodiscard]] std::vector<double> to_dense(const BasicCsrView<Idx>& m);

extern template class BasicCsrMatrix<Idx32>;
extern template class BasicCsrMatrix<Idx64>;
extern template class BasicCsrBuilder<Idx32>;
extern template class BasicCsrBuilder<Idx64>;
extern template std::vector<double> to_dense<Idx32>(const CsrView&);
extern template std::vector<double> to_dense<Idx64>(const CsrView64&);

}  // namespace spmvcache
