// Cache-line layout of the SpMV data structures (Fig. 1c of the paper).
//
// Every array is aligned to a cache-line boundary and the arrays are laid
// out back to back: x, y, a (values), colidx, rowptr. Element sizes default
// to the paper's accounting: 8-byte x/y/a/rowptr, 4-byte colidx. The index
// arrays' element sizes are runtime parameters so the layout can also
// describe the W32 storage pipeline (4-byte colidx *and* 4-byte rowptr) or
// the W64 fallback (8-byte colidx) — the locality model picks whichever
// accounting matches the matrix being modelled.
#pragma once

#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "trace/memref.hpp"

namespace spmvcache {

/// The paper's index accounting: 4-byte colidx, 8-byte rowptr.
inline constexpr std::uint32_t kPaperColidxBytes = 4;
inline constexpr std::uint32_t kPaperRowptrBytes = 8;

/// Maps (data object, element index) -> global cache-line number.
class SpmvLayout {
public:
    /// Lays out the arrays for an M-by-N matrix with K nonzeros and a
    /// cache-line size of `line_bytes` (256 on the A64FX; Fig. 1 uses 16).
    /// `colidx_bytes`/`rowptr_bytes` are the index arrays' element sizes;
    /// the defaults are the paper's accounting. Pre: line_bytes is a power
    /// of two >= 8; element sizes are powers of two in [4, 8] no larger
    /// than line_bytes.
    SpmvLayout(std::int64_t rows, std::int64_t cols, std::int64_t nnz,
               std::uint64_t line_bytes,
               std::uint32_t colidx_bytes = kPaperColidxBytes,
               std::uint32_t rowptr_bytes = kPaperRowptrBytes);

    /// Convenience: layout for a concrete matrix, with the paper's default
    /// element accounting (independent of the matrix's storage width — the
    /// pinned trace corpus depends on that).
    template <class Idx>
    SpmvLayout(const BasicCsrView<Idx>& m, std::uint64_t line_bytes)
        : SpmvLayout(m.rows(), m.cols(), m.nnz(), line_bytes) {}

    /// Same, from an owning matrix (deduction cannot see through the
    /// implicit matrix -> view conversion).
    template <class Idx>
    SpmvLayout(const BasicCsrMatrix<Idx>& m, std::uint64_t line_bytes)
        : SpmvLayout(m.rows(), m.cols(), m.nnz(), line_bytes) {}

    [[nodiscard]] std::uint64_t line_bytes() const noexcept {
        return line_bytes_;
    }
    /// Element sizes this layout accounts colidx/rowptr at.
    [[nodiscard]] std::uint32_t colidx_bytes() const noexcept {
        return colidx_bytes_;
    }
    [[nodiscard]] std::uint32_t rowptr_bytes() const noexcept {
        return rowptr_bytes_;
    }

    /// Line of x[i] (8-byte elements). Pre: 0 <= i < cols.
    [[nodiscard]] std::uint64_t x_line(std::int64_t i) const noexcept {
        return base_[0] + static_cast<std::uint64_t>(i) / per_line8_;
    }
    /// Line of y[r]. Pre: 0 <= r < rows.
    [[nodiscard]] std::uint64_t y_line(std::int64_t r) const noexcept {
        return base_[1] + static_cast<std::uint64_t>(r) / per_line8_;
    }
    /// Line of a[i]. Pre: 0 <= i < nnz.
    [[nodiscard]] std::uint64_t values_line(std::int64_t i) const noexcept {
        return base_[2] + static_cast<std::uint64_t>(i) / per_line8_;
    }
    /// Line of colidx[i]. Pre: 0 <= i < nnz.
    [[nodiscard]] std::uint64_t colidx_line(std::int64_t i) const noexcept {
        return base_[3] + static_cast<std::uint64_t>(i) / per_line_colidx_;
    }
    /// Line of rowptr[r]. Pre: 0 <= r <= rows.
    [[nodiscard]] std::uint64_t rowptr_line(std::int64_t r) const noexcept {
        return base_[4] + static_cast<std::uint64_t>(r) / per_line_rowptr_;
    }

    /// Line of element `i` of `object` (dispatches to the above).
    [[nodiscard]] std::uint64_t line_of(DataObject object,
                                        std::int64_t i) const noexcept;

    /// First line of each array, in layout order x, y, a, colidx, rowptr.
    [[nodiscard]] std::uint64_t base(DataObject object) const noexcept {
        return base_[static_cast<int>(object)];
    }
    /// Number of lines occupied by `object`.
    [[nodiscard]] std::uint64_t lines_of(DataObject object) const noexcept {
        return size_[static_cast<int>(object)];
    }
    /// Total lines across all five arrays.
    [[nodiscard]] std::uint64_t total_lines() const noexcept { return total_; }

    /// The object owning a given line (for attribution in counters).
    /// Pre: line < total_lines().
    [[nodiscard]] DataObject object_of(std::uint64_t line) const;

private:
    std::uint64_t line_bytes_;
    std::uint32_t colidx_bytes_;
    std::uint32_t rowptr_bytes_;
    std::uint64_t per_line8_;         ///< 8-byte elements per line
    std::uint64_t per_line_colidx_;   ///< colidx elements per line
    std::uint64_t per_line_rowptr_;   ///< rowptr elements per line
    // Indexed by static_cast<int>(DataObject): X, Y, Values, ColIdx, RowPtr.
    std::uint64_t base_[kDataObjectCount];
    std::uint64_t size_[kDataObjectCount];
    std::uint64_t total_;
};

}  // namespace spmvcache
