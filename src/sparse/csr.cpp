#include "sparse/csr.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace spmvcache {

template <class Idx>
void BasicCsrMatrix<Idx>::validate() const {
    if (const Status s = check(); !s.ok())
        throw ContractViolation("CsrMatrix::validate: " + s.render());
}

template <class Idx>
[[nodiscard]] Status check_csr_view(const BasicCsrView<Idx>& m) {
    const auto invalid = [](std::string what) {
        return Status(ErrorCode::ValidationError, std::move(what));
    };
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    if (rowptr.size() != static_cast<std::size_t>(m.rows()) + 1)
        return invalid("rowptr has " + std::to_string(rowptr.size()) +
                       " entries, expected rows+1 = " +
                       std::to_string(m.rows() + 1));
    if (rowptr.front() != 0) return invalid("rowptr[0] != 0");
    if (colidx.size() != m.values().size())
        return invalid("colidx/values length mismatch");
    if (static_cast<std::uint64_t>(rowptr.back()) != colidx.size())
        return invalid("rowptr[rows] != nnz");
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        const auto begin = static_cast<std::int64_t>(
            rowptr[static_cast<std::size_t>(r)]);
        const auto end = static_cast<std::int64_t>(
            rowptr[static_cast<std::size_t>(r) + 1]);
        if (begin > end)
            return invalid("rowptr not monotone at row " + std::to_string(r));
        for (std::int64_t i = begin; i < end; ++i) {
            const auto c = static_cast<std::int64_t>(
                colidx[static_cast<std::size_t>(i)]);
            if (c < 0 || c >= m.cols())
                return invalid("column index " + std::to_string(c) +
                               " out of range in row " + std::to_string(r));
            if (i > begin &&
                static_cast<std::int64_t>(
                    colidx[static_cast<std::size_t>(i - 1)]) >= c)
                return invalid("columns not strictly increasing in row " +
                               std::to_string(r));
        }
    }
    return OkStatus();
}

template <class Idx>
BasicCsrMatrix<Idx> BasicCsrMatrix<Idx>::permuted_symmetric(
    std::span<const index_type> perm) const {
    const std::int64_t rows = this->rows();
    SPMV_EXPECTS(rows == this->cols());
    SPMV_EXPECTS(perm.size() == static_cast<std::size_t>(rows));

    // inverse[old] = new
    std::vector<index_type> inverse(perm.size());
    for (std::size_t n = 0; n < perm.size(); ++n) {
        const auto old = perm[n];
        SPMV_EXPECTS(old >= 0 && static_cast<std::int64_t>(old) < rows);
        inverse[static_cast<std::size_t>(old)] = static_cast<index_type>(n);
    }

    BasicCsrBuilder<Idx> builder(rows, rows,
                                 static_cast<std::size_t>(this->nnz()));
    std::vector<std::pair<index_type, double>> row_entries;
    for (std::int64_t new_r = 0; new_r < rows; ++new_r) {
        const auto old_r = static_cast<std::size_t>(perm[
            static_cast<std::size_t>(new_r)]);
        row_entries.clear();
        for (auto i = static_cast<std::int64_t>(rowptr_[old_r]);
             i < static_cast<std::int64_t>(rowptr_[old_r + 1]); ++i) {
            const auto old_c = colidx_[static_cast<std::size_t>(i)];
            row_entries.emplace_back(inverse[static_cast<std::size_t>(old_c)],
                                     values_[static_cast<std::size_t>(i)]);
        }
        std::sort(row_entries.begin(), row_entries.end());
        for (const auto& [c, v] : row_entries)
            builder.push(new_r, static_cast<std::int64_t>(c), v);
    }
    return std::move(builder).finish();
}

template <class Idx>
BasicCsrBuilder<Idx>::BasicCsrBuilder(std::int64_t rows, std::int64_t cols,
                                      std::size_t nnz_hint)
    : rows_(rows), cols_(cols) {
    SPMV_EXPECTS(rows >= 0);
    SPMV_EXPECTS(cols >= 0);
    SPMV_EXPECTS(cols <= static_cast<std::int64_t>(
                             std::numeric_limits<index_type>::max()));
    SPMV_EXPECTS(rows < static_cast<std::int64_t>(
                            std::numeric_limits<offset_type>::max()));
    m_.rowptr_.reserve(static_cast<std::size_t>(rows) + 1);
    m_.rowptr_.push_back(0);
    m_.colidx_.reserve(nnz_hint);
    m_.values_.reserve(nnz_hint);
}

template <class Idx>
void BasicCsrBuilder<Idx>::push(std::int64_t row, std::int64_t col,
                                double value) {
    SPMV_EXPECTS(row >= current_row_ && row < rows_);
    SPMV_EXPECTS(col >= 0 && col < cols_);
    while (current_row_ < row) {
        m_.rowptr_.push_back(checked_nnz());
        ++current_row_;
        last_col_ = -1;
    }
    SPMV_EXPECTS(col > last_col_);
    last_col_ = col;
    m_.colidx_.push_back(static_cast<index_type>(col));
    m_.values_.push_back(value);
}

template <class Idx>
BasicCsrMatrix<Idx> BasicCsrBuilder<Idx>::finish() && {
    while (current_row_ < rows_) {
        m_.rowptr_.push_back(checked_nnz());
        ++current_row_;
    }
    m_.bind(rows_, cols_);
    return std::move(m_);
}

template <class Idx>
std::vector<double> to_dense(const BasicCsrView<Idx>& m) {
    std::vector<double> dense(
        static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()),
        0.0);
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    const auto values = m.values();
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        for (auto i = static_cast<std::int64_t>(
                 rowptr[static_cast<std::size_t>(r)]);
             i < static_cast<std::int64_t>(
                     rowptr[static_cast<std::size_t>(r) + 1]);
             ++i) {
            dense[static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(m.cols()) +
                  static_cast<std::size_t>(
                      colidx[static_cast<std::size_t>(i)])] =
                values[static_cast<std::size_t>(i)];
        }
    }
    return dense;
}

template class BasicCsrMatrix<Idx32>;
template class BasicCsrMatrix<Idx64>;
template class BasicCsrBuilder<Idx32>;
template class BasicCsrBuilder<Idx64>;
template std::vector<double> to_dense<Idx32>(const CsrView&);
template std::vector<double> to_dense<Idx64>(const CsrView64&);
template Status check_csr_view<Idx32>(const CsrView&);
template Status check_csr_view<Idx64>(const CsrView64&);

}  // namespace spmvcache
