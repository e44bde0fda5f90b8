// Coordinate-format sparse matrix: the assembly format every generator and
// the Matrix Market reader produce before conversion to CSR. Entries keep
// 64-bit coordinates regardless of the target CSR index width — the width
// is chosen at conversion time (to_csr_width / to_csr_any), so narrow
// matrices are materialized narrow directly with no 64->32 copy pass over
// the finished CSR arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/index_width.hpp"
#include "util/status.hpp"

namespace spmvcache {

template <class Idx>
class BasicCsrMatrix;  // forward declaration (csr.hpp)
using CsrMatrix = BasicCsrMatrix<Idx32>;
class AnyCsrMatrix;  // forward declaration (any_csr.hpp)

/// One nonzero entry in coordinate form.
struct CooEntry {
    std::int64_t row = 0;
    std::int64_t col = 0;
    double value = 0.0;
};

/// Mutable coordinate-format matrix used during construction. Every
/// conversion to CSR runs in O(nnz + rows): entries are bucketed by row in
/// insertion order, a row whose columns arrive out of order is
/// stable-sorted, and duplicate (row, col) entries are summed in insertion
/// order.
class CooMatrix {
public:
    CooMatrix() = default;

    /// Pre: rows >= 0, cols >= 0.
    CooMatrix(std::int64_t rows, std::int64_t cols);

    /// Appends an entry. Pre: 0 <= row < rows(), 0 <= col < cols().
    void add(std::int64_t row, std::int64_t col, double value) {
        SPMV_EXPECTS(row >= 0 && row < rows_);
        SPMV_EXPECTS(col >= 0 && col < cols_);
        entries_.push_back(CooEntry{row, col, value});
    }

    /// Reserves storage for `n` entries.
    void reserve(std::size_t n) { entries_.reserve(n); }

    /// Converts to narrow CSR. Throws StatusError when the shape exceeds
    /// the W32 bounds (UnsupportedError) or memory runs out (ResourceError).
    [[nodiscard]] CsrMatrix to_csr() &&;

    /// Typed narrow conversion for input pipelines: never throws for data
    /// the add() contract admitted; reports merged duplicates through
    /// `duplicates` (may be null) so strict parsers can reject them.
    /// UnsupportedError when the shape exceeds the W32 bounds.
    [[nodiscard]] Result<CsrMatrix> try_to_csr(
        std::size_t* duplicates = nullptr) &&;

    /// Width-explicit conversion: materializes the CSR arrays directly at
    /// `Idx`'s element widths. UnsupportedError when Idx is Idx32 and the
    /// shape exceeds the W32 bounds.
    template <class Idx>
    [[nodiscard]] Result<BasicCsrMatrix<Idx>> to_csr_width(
        std::size_t* duplicates = nullptr) &&;

    /// Resolves `choice` against the final (post-merge) shape and converts
    /// at the resolved width (auto narrows whenever representable).
    [[nodiscard]] Result<AnyCsrMatrix> to_csr_any(
        IndexWidthChoice choice, std::size_t* duplicates = nullptr) &&;

    [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nnz() const noexcept { return entries_.size(); }
    [[nodiscard]] const std::vector<CooEntry>& entries() const noexcept {
        return entries_;
    }

private:
    /// The row-bucketed assembly. Frees the entries once they are placed.
    /// Pre: the unmerged shape fits `Idx`'s layout.
    template <class Idx>
    [[nodiscard]] BasicCsrMatrix<Idx> assemble(std::size_t* duplicates);

    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::vector<CooEntry> entries_;
};

extern template Result<BasicCsrMatrix<Idx32>> CooMatrix::to_csr_width<Idx32>(
    std::size_t*) &&;
extern template Result<BasicCsrMatrix<Idx64>> CooMatrix::to_csr_width<Idx64>(
    std::size_t*) &&;

}  // namespace spmvcache
