// Coordinate-format sparse matrix: the assembly format every generator and
// the Matrix Market reader produce before conversion to CSR. Entries are
// kept as three arrays (rows, columns, values) at the index width the
// conversion will produce: 4-byte rows and columns (16 B per entry) unless
// the width is forced to 64 or the shape exceeds the W32 row or column
// bound (then 8-byte, 24 B per entry). When the rows arrive in
// nondecreasing order, conversion moves the column and value arrays into
// the CSR and only counts the rows; any other order scatters the entries
// into fresh CSR arrays by row (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "sparse/index_width.hpp"
#include "util/align.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace spmvcache {

template <class Idx>
class BasicCsrMatrix;  // forward declaration (csr.hpp)
using CsrMatrix = BasicCsrMatrix<Idx32>;
class AnyCsrMatrix;  // forward declaration (any_csr.hpp)

/// Entry i of a CooMatrix is (rows[i], cols[i], values[i]), at the index
/// type of `Idx`. The column and value arrays have the CSR's own types, so
/// an in-order conversion hands them over without a copy.
template <class Idx>
struct CooArrays {
    using index_type = typename Idx::index_type;

    std::vector<index_type> rows;
    aligned_vector<index_type> cols;
    aligned_vector<double> values;

    void push(std::int64_t row, std::int64_t col, double value) {
        rows.push_back(static_cast<index_type>(row));
        cols.push_back(static_cast<index_type>(col));
        values.push_back(value);
    }
};

/// Mutable coordinate-format matrix used during construction. Every
/// conversion to CSR runs in O(nnz + rows): entries keep their insertion
/// order within a row, a row whose columns arrive out of order is
/// stable-sorted, and duplicate (row, col) entries are summed in insertion
/// order.
class CooMatrix {
public:
    CooMatrix() = default;

    /// Pre: rows >= 0, cols >= 0. `width` is the width to_csr_any()
    /// resolves; it also picks the storage width (see the file comment).
    CooMatrix(std::int64_t rows, std::int64_t cols,
              IndexWidthChoice width = IndexWidthChoice::Auto);

    /// Appends an entry. Pre: 0 <= row < rows(), 0 <= col < cols().
    void add(std::int64_t row, std::int64_t col, double value) {
        SPMV_EXPECTS(row >= 0 && row < rows_);
        SPMV_EXPECTS(col >= 0 && col < cols_);
        rows_sorted_ = rows_sorted_ && row >= last_row_;
        last_row_ = row;
        if (auto* narrow = std::get_if<CooArrays<Idx32>>(&arrays_))
            narrow->push(row, col, value);
        else
            std::get_if<CooArrays<Idx64>>(&arrays_)->push(row, col, value);
    }

    /// Reserves storage for `n` entries.
    void reserve(std::size_t n);

    /// Converts to narrow CSR. Throws StatusError when the shape exceeds
    /// the W32 bounds (UnsupportedError) or memory runs out (ResourceError).
    [[nodiscard]] CsrMatrix to_csr() &&;

    /// Typed narrow conversion: never throws for data the add() contract
    /// admitted; reports merged duplicates through `duplicates` (may be
    /// null). UnsupportedError when the shape exceeds the W32 bounds.
    [[nodiscard]] Result<CsrMatrix> try_to_csr(
        std::size_t* duplicates = nullptr) &&;

    /// Resolves the constructor's width against the final (post-merge)
    /// shape and converts at the resolved width (auto narrows whenever
    /// representable).
    [[nodiscard]] Result<AnyCsrMatrix> to_csr_any(
        std::size_t* duplicates = nullptr) &&;

    [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nnz() const noexcept {
        return std::visit([](const auto& a) { return a.values.size(); },
                          arrays_);
    }

private:
    [[nodiscard]] Result<AnyCsrMatrix> convert(IndexWidthChoice choice,
                                               std::size_t* duplicates) &&;

    /// Builds the CSR arrays from `coo` and frees it: moved in when the
    /// rows arrived sorted at the stored width, scattered by row
    /// otherwise; then rows with unsorted or repeated columns are sorted
    /// and merged. Pre: the unmerged shape fits `Idx`'s layout.
    template <class Idx, class Stored>
    [[nodiscard]] BasicCsrMatrix<Idx> assemble(CooArrays<Stored>& coo,
                                               std::size_t* duplicates);

    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    IndexWidthChoice width_ = IndexWidthChoice::Auto;
    bool rows_sorted_ = true;
    std::int64_t last_row_ = 0;
    std::variant<CooArrays<Idx32>, CooArrays<Idx64>> arrays_;
};

}  // namespace spmvcache
