#include "sparse/sellcs.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace spmvcache {

template <class Idx>
BasicSellGeometry<Idx>::BasicSellGeometry(const BasicCsrView<Idx>& csr,
                                          std::int64_t chunk_height,
                                          std::int64_t sigma)
    : rows_(csr.rows()), cols_(csr.cols()), nnz_(csr.nnz()),
      c_(chunk_height), sigma_(sigma) {
    SPMV_EXPECTS(chunk_height >= 1);
    SPMV_EXPECTS(sigma >= 1);
    SPMV_EXPECTS(sigma == 1 || sigma % chunk_height == 0);

    const auto rowptr = csr.rowptr();

    // Sort rows by descending length within windows of sigma rows.
    perm_.resize(static_cast<std::size_t>(rows_));
    std::iota(perm_.begin(), perm_.end(), index_type{0});
    auto row_len = [&](index_type r) {
        return static_cast<std::int64_t>(
            rowptr[static_cast<std::size_t>(r) + 1] -
            rowptr[static_cast<std::size_t>(r)]);
    };
    for (std::int64_t window = 0; window < rows_; window += sigma_) {
        const auto begin = perm_.begin() + static_cast<std::ptrdiff_t>(window);
        const auto end =
            perm_.begin() +
            static_cast<std::ptrdiff_t>(std::min(window + sigma_, rows_));
        std::stable_sort(begin, end, [&](index_type a, index_type b) {
            return row_len(a) > row_len(b);
        });
    }

    row_lengths_.resize(static_cast<std::size_t>(rows_));
    for (std::int64_t p = 0; p < rows_; ++p)
        row_lengths_[static_cast<std::size_t>(p)] = static_cast<index_type>(
            row_len(perm_[static_cast<std::size_t>(p)]));

    // Chunk geometry: width of chunk k = longest row in it.
    const std::int64_t num_chunks = (rows_ + c_ - 1) / c_;
    chunk_width_.resize(static_cast<std::size_t>(num_chunks));
    chunk_offset_.resize(static_cast<std::size_t>(num_chunks) + 1);
    chunk_offset_[0] = 0;
    for (std::int64_t k = 0; k < num_chunks; ++k) {
        std::int64_t width = 0;
        for (std::int64_t i = 0; i < c_; ++i) {
            const std::int64_t p = k * c_ + i;
            if (p < rows_)
                width = std::max<std::int64_t>(
                    width, row_lengths_[static_cast<std::size_t>(p)]);
        }
        chunk_width_[static_cast<std::size_t>(k)] = width;
        chunk_offset_[static_cast<std::size_t>(k) + 1] =
            chunk_offset_[static_cast<std::size_t>(k)] + width * c_;
    }
}

template <class Idx>
void BasicSellGeometry<Idx>::fill(const BasicCsrView<Idx>& csr,
                                  std::int64_t chunk_begin,
                                  std::int64_t chunk_end,
                                  std::span<double> values,
                                  std::span<index_type> colidx) const {
    SPMV_EXPECTS(csr.rows() == rows_ && csr.nnz() == nnz_);
    SPMV_EXPECTS(0 <= chunk_begin && chunk_begin <= chunk_end &&
                 chunk_end <= chunks());
    SPMV_EXPECTS(values.size() == static_cast<std::size_t>(padded_nnz()) &&
                 colidx.size() == values.size());
    const auto rowptr = csr.rowptr();
    const auto csr_colidx = csr.colidx();
    const auto csr_values = csr.values();
    // Lane i of chunk k holds sorted row k*C + i, column-major: slot
    // base + j*C + i is element j of that row, or padding past the row's
    // end (and in every lane past the last row, in a ragged final chunk).
    // The slots are written in order.
    std::vector<std::int64_t> lane_begin(static_cast<std::size_t>(c_));
    std::vector<std::int64_t> lane_len(static_cast<std::size_t>(c_));
    for (std::int64_t k = chunk_begin; k < chunk_end; ++k) {
        for (std::int64_t i = 0; i < c_; ++i) {
            const std::int64_t p = k * c_ + i;
            const auto lane = static_cast<std::size_t>(i);
            lane_begin[lane] = 0;
            lane_len[lane] = 0;
            if (p < rows_) {
                const auto row = static_cast<std::size_t>(
                    perm_[static_cast<std::size_t>(p)]);
                lane_begin[lane] = static_cast<std::int64_t>(rowptr[row]);
                lane_len[lane] = row_lengths_[static_cast<std::size_t>(p)];
            }
        }
        auto slot = static_cast<std::size_t>(
            chunk_offset_[static_cast<std::size_t>(k)]);
        const std::int64_t width = chunk_width_[static_cast<std::size_t>(k)];
        for (std::int64_t j = 0; j < width; ++j) {
            for (std::size_t lane = 0; lane < lane_len.size(); ++lane, ++slot) {
                if (j < lane_len[lane]) {
                    const auto at =
                        static_cast<std::size_t>(lane_begin[lane] + j);
                    values[slot] = csr_values[at];
                    colidx[slot] = csr_colidx[at];
                } else {
                    values[slot] = 0.0;
                    colidx[slot] = 0;
                }
            }
        }
    }
}

template <class Idx>
std::int64_t BasicSellGeometry<Idx>::chunk_width(std::int64_t k) const {
    SPMV_EXPECTS(k >= 0 && k < chunks());
    return chunk_width_[static_cast<std::size_t>(k)];
}

template <class Idx>
std::int64_t BasicSellGeometry<Idx>::chunk_offset(std::int64_t k) const {
    SPMV_EXPECTS(k >= 0 && k < chunks());
    return chunk_offset_[static_cast<std::size_t>(k)];
}

template <class Idx>
BasicSellCSigmaMatrix<Idx>::BasicSellCSigmaMatrix(
    const BasicCsrView<Idx>& csr, std::int64_t chunk_height,
    std::int64_t sigma)
    : BasicSellGeometry<Idx>(csr, chunk_height, sigma),
      values_(static_cast<std::size_t>(this->padded_nnz())),
      colidx_(static_cast<std::size_t>(this->padded_nnz())) {
    this->fill(csr, 0, this->chunks(), {values_.data(), values_.size()},
               {colidx_.data(), colidx_.size()});
}

template <class Idx>
void spmv_sell(const BasicSellCSigmaMatrix<Idx>& a, std::span<const double> x,
               std::span<double> y) {
    SPMV_EXPECTS(x.size() == static_cast<std::size_t>(a.cols()));
    SPMV_EXPECTS(y.size() == static_cast<std::size_t>(a.rows()));
    const auto values = a.values();
    const auto colidx = a.colidx();
    const auto perm = a.perm();
    const std::int64_t c = a.chunk_height();

    for (std::int64_t k = 0; k < a.chunks(); ++k) {
        const std::int64_t base = a.chunk_offset(k);
        const std::int64_t width = a.chunk_width(k);
        const std::int64_t rows_in_chunk =
            std::min(c, a.rows() - k * c);
        // Column-major accumulation: the i-loop vectorises over the chunk.
        for (std::int64_t i = 0; i < rows_in_chunk; ++i) {
            double acc = 0.0;
            for (std::int64_t j = 0; j < width; ++j) {
                const std::size_t slot =
                    static_cast<std::size_t>(base + j * c + i);
                acc += values[slot] *
                       x[static_cast<std::size_t>(colidx[slot])];
            }
            y[static_cast<std::size_t>(
                perm[static_cast<std::size_t>(k * c + i)])] += acc;
        }
    }
}

template class BasicSellGeometry<Idx32>;
template class BasicSellGeometry<Idx64>;
template class BasicSellCSigmaMatrix<Idx32>;
template class BasicSellCSigmaMatrix<Idx64>;
template void spmv_sell<Idx32>(const BasicSellCSigmaMatrix<Idx32>&,
                               std::span<const double>, std::span<double>);
template void spmv_sell<Idx64>(const BasicSellCSigmaMatrix<Idx64>&,
                               std::span<const double>, std::span<double>);

}  // namespace spmvcache
