// SELL-C-sigma sparse matrix format (Kreutzer et al.), the format the
// paper's related work (Alappat et al.) found faster than CSR on the
// A64FX and names as future work for the sector cache ("it is worth
// investigating how the sector cache can be applied in the case of other
// sparse matrix storage formats").
//
// Rows are sorted by length within windows of sigma rows, grouped into
// chunks of C rows, and each chunk is stored column-major, padded to the
// length of its longest row — SIMD-friendly on 512-bit SVE (C = multiple
// of 8 doubles).
//
// The per-element arrays (colidx, perm, row_lengths) follow the CSR index
// width (Idx32/Idx64); the chunk geometry (offsets, widths) stays int64 at
// both widths since padding can push the stored element count past the
// logical nnz bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr_view.hpp"
#include "util/align.hpp"

namespace spmvcache {

/// The layout of a SELL-C-sigma matrix without its element arrays: the
/// sigma-sorted row permutation, each sorted row's length, and the chunk
/// widths and offsets. Building it reads only the CSR row pointers, so a
/// caller learns padded_nnz() before it stores a padded element, and
/// fill() then writes the arrays one chunk range at a time (the kernel
/// engine fills each worker's chunks on that worker).
template <class Idx>
class BasicSellGeometry {
public:
    using index_type = typename Idx::index_type;
    using idx_tag = Idx;

    /// Sorts and chunks the rows of `csr`. Pre: chunk_height >= 1; sigma
    /// >= 1 and a multiple of chunk_height (or 1 for no sorting).
    BasicSellGeometry(const BasicCsrView<Idx>& csr, std::int64_t chunk_height,
                      std::int64_t sigma);

    [[nodiscard]] static constexpr IndexWidth index_width() noexcept {
        return Idx::width;
    }

    [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::int64_t cols() const noexcept { return cols_; }
    /// Logical nonzeros (excluding padding).
    [[nodiscard]] std::int64_t nnz() const noexcept { return nnz_; }
    [[nodiscard]] std::int64_t chunk_height() const noexcept { return c_; }
    [[nodiscard]] std::int64_t sigma() const noexcept { return sigma_; }
    [[nodiscard]] std::int64_t chunks() const noexcept {
        return static_cast<std::int64_t>(chunk_width_.size());
    }

    /// Stored elements including zero padding.
    [[nodiscard]] std::int64_t padded_nnz() const noexcept {
        return chunk_offset_.back();
    }
    /// Padding overhead beta = padded / logical (1.0 = no padding).
    [[nodiscard]] double padding_factor() const noexcept {
        return nnz_ > 0 ? static_cast<double>(padded_nnz()) /
                              static_cast<double>(nnz_)
                        : 1.0;
    }

    /// Width (longest row) of chunk `k`. Pre: 0 <= k < chunks().
    [[nodiscard]] std::int64_t chunk_width(std::int64_t k) const;
    /// Offset of chunk k's first element in the chunk-major arrays.
    [[nodiscard]] std::int64_t chunk_offset(std::int64_t k) const;

    /// Whole geometry arrays (for kernels that loop over chunk ranges):
    /// chunks()+1 offsets and chunks() widths.
    [[nodiscard]] std::span<const std::int64_t> chunk_offsets() const noexcept {
        return {chunk_offset_.data(), chunk_offset_.size()};
    }
    [[nodiscard]] std::span<const std::int64_t> chunk_widths() const noexcept {
        return {chunk_width_.data(), chunk_width_.size()};
    }

    /// Row permutation: perm()[sorted_position] = original row.
    [[nodiscard]] std::span<const index_type> perm() const noexcept {
        return {perm_.data(), perm_.size()};
    }
    /// Nonzeros (unpadded length) of sorted row position p.
    [[nodiscard]] std::span<const index_type> row_lengths() const noexcept {
        return {row_lengths_.data(), row_lengths_.size()};
    }

    /// Writes chunks [chunk_begin, chunk_end) of the chunk-major arrays of
    /// `csr`, the matrix this geometry was built from: every slot in
    /// [chunk_offset(chunk_begin), chunk_offset(chunk_end)) of `values`
    /// and `colidx`, padding included (value 0, column 0, so the kernels
    /// need no branches), and no slot outside it. Disjoint chunk ranges
    /// may be filled concurrently. Pre: 0 <= chunk_begin <= chunk_end <=
    /// chunks(); both arrays hold padded_nnz() elements.
    void fill(const BasicCsrView<Idx>& csr, std::int64_t chunk_begin,
              std::int64_t chunk_end, std::span<double> values,
              std::span<index_type> colidx) const;

private:
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t nnz_ = 0;
    std::int64_t c_ = 1;
    std::int64_t sigma_ = 1;
    aligned_vector<std::int64_t> chunk_offset_;  ///< chunks()+1 entries
    std::vector<std::int64_t> chunk_width_;
    std::vector<index_type> perm_;
    std::vector<index_type> row_lengths_;
};

/// Immutable SELL-C-sigma matrix, built from a CSR matrix: its geometry
/// plus the chunk-major arrays, filled over all chunks.
template <class Idx>
class BasicSellCSigmaMatrix : public BasicSellGeometry<Idx> {
public:
    using index_type = typename Idx::index_type;

    /// Converts `csr`. Pre: as BasicSellGeometry's.
    BasicSellCSigmaMatrix(const BasicCsrView<Idx>& csr,
                          std::int64_t chunk_height, std::int64_t sigma);

    [[nodiscard]] std::span<const double> values() const noexcept {
        return {values_.data(), values_.size()};
    }
    [[nodiscard]] std::span<const index_type> colidx() const noexcept {
        return {colidx_.data(), colidx_.size()};
    }

    /// Byte sizes for working-set classification.
    [[nodiscard]] std::uint64_t values_bytes() const noexcept {
        return values_.size() * sizeof(double);
    }
    [[nodiscard]] std::uint64_t colidx_bytes() const noexcept {
        return colidx_.size() * sizeof(index_type);
    }

private:
    aligned_vector<double> values_;
    aligned_vector<index_type> colidx_;
};

using SellGeometry = BasicSellGeometry<Idx32>;
using SellCSigmaMatrix = BasicSellCSigmaMatrix<Idx32>;
using SellCSigmaMatrix64 = BasicSellCSigmaMatrix<Idx64>;

/// y <- y + A x with A in SELL-C-sigma form (results land at the original
/// row positions via the permutation).
/// Pre: x.size() == cols, y.size() == rows.
template <class Idx>
void spmv_sell(const BasicSellCSigmaMatrix<Idx>& a, std::span<const double> x,
               std::span<double> y);

extern template class BasicSellGeometry<Idx32>;
extern template class BasicSellGeometry<Idx64>;
extern template class BasicSellCSigmaMatrix<Idx32>;
extern template class BasicSellCSigmaMatrix<Idx64>;
extern template void spmv_sell<Idx32>(const BasicSellCSigmaMatrix<Idx32>&,
                                      std::span<const double>,
                                      std::span<double>);
extern template void spmv_sell<Idx64>(const BasicSellCSigmaMatrix<Idx64>&,
                                      std::span<const double>,
                                      std::span<double>);

}  // namespace spmvcache
