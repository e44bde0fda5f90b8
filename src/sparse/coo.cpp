#include "sparse/coo.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "sparse/any_csr.hpp"
#include "sparse/csr.hpp"

namespace spmvcache {

CooMatrix::CooMatrix(std::int64_t rows, std::int64_t cols,
                     IndexWidthChoice width)
    : rows_(rows), cols_(cols), width_(width) {
    SPMV_EXPECTS(rows >= 0);
    SPMV_EXPECTS(cols >= 0);
    if (width == IndexWidthChoice::W64 ||
        !width32_representable(rows, cols, 0))
        arrays_.emplace<CooArrays<Idx64>>();
}

void CooMatrix::reserve(std::size_t n) {
    std::visit(
        [n](auto& a) {
            a.rows.reserve(n);
            a.cols.reserve(n);
            a.values.reserve(n);
        },
        arrays_);
}

template <class Idx, class Stored>
BasicCsrMatrix<Idx> CooMatrix::assemble(CooArrays<Stored>& coo,
                                        std::size_t* duplicates) {
    using index_type = typename Idx::index_type;
    using offset_type = typename Idx::offset_type;
    const std::size_t n = coo.values.size();
    SPMV_EXPECTS(cols_ <= static_cast<std::int64_t>(
                              std::numeric_limits<index_type>::max()));
    SPMV_EXPECTS(rows_ < static_cast<std::int64_t>(
                             std::numeric_limits<offset_type>::max()));
    SPMV_EXPECTS(n <= static_cast<std::uint64_t>(
                          std::numeric_limits<offset_type>::max()));
    const auto rows = static_cast<std::size_t>(rows_);

    BasicCsrMatrix<Idx> m;
    auto& rowptr = m.rowptr_;
    auto& colidx = m.colidx_;
    auto& values = m.values_;
    // Count row r's entries into slot r + 2 and prefix-sum: slot r + 1
    // then holds row r's start and slot r + 2 its end.
    rowptr.assign(rows + 2, 0);
    for (const auto r : coo.rows) ++rowptr[static_cast<std::size_t>(r) + 2];
    for (std::size_t r = 2; r < rows + 2; ++r) rowptr[r] += rowptr[r - 1];
    bool moved = false;
    if constexpr (std::is_same_v<typename Stored::index_type, index_type>) {
        if (rows_sorted_) {
            // The entries already sit in CSR order: the column and value
            // arrays become the CSR's.
            colidx = std::move(coo.cols);
            values = std::move(coo.values);
            rowptr.erase(rowptr.begin());
            moved = true;
        }
    }
    if (!moved) {
        // Slot r + 1 serves as row r's insertion cursor, so once every
        // entry is placed it holds row r's end: the final rowptr with one
        // spare slot.
        colidx.resize(n);
        values.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto at = static_cast<std::size_t>(
                rowptr[static_cast<std::size_t>(coo.rows[i]) + 1]++);
            colidx[at] = static_cast<index_type>(coo.cols[i]);
            values[at] = coo.values[i];
        }
        rowptr.pop_back();
    }
    coo = CooArrays<Stored>{};

    // Rows arrive sorted unless the input listed a row's columns out of
    // order or repeated one; only those rows are sorted and merged. Rows
    // move down over the slots freed by earlier merges.
    std::vector<std::pair<index_type, double>> row_buf;
    std::size_t out = 0;
    std::size_t begin = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const auto end = static_cast<std::size_t>(rowptr[r + 1]);
        const auto first = colidx.begin() + static_cast<std::ptrdiff_t>(begin);
        const auto last = colidx.begin() + static_cast<std::ptrdiff_t>(end);
        if (std::adjacent_find(first, last, std::greater_equal<>()) == last) {
            if (out != begin) {
                std::memmove(colidx.data() + out, colidx.data() + begin,
                             (end - begin) * sizeof(index_type));
                std::memmove(values.data() + out, values.data() + begin,
                             (end - begin) * sizeof(double));
            }
            out += end - begin;
        } else {
            row_buf.clear();
            for (std::size_t i = begin; i < end; ++i)
                row_buf.emplace_back(colidx[i], values[i]);
            std::stable_sort(row_buf.begin(), row_buf.end(),
                             [](const auto& a, const auto& b) {
                                 return a.first < b.first;
                             });
            const std::size_t row_out = out;
            for (const auto& [c, v] : row_buf) {
                if (out > row_out && colidx[out - 1] == c) {
                    values[out - 1] += v;
                    continue;
                }
                SPMV_EXPECTS(out == row_out || colidx[out - 1] < c);
                colidx[out] = c;
                values[out] = v;
                ++out;
            }
        }
        rowptr[r + 1] = static_cast<offset_type>(out);
        begin = end;
    }
    if (duplicates != nullptr) *duplicates = n - out;
    if (out < n) {
        colidx.resize(out);
        values.resize(out);
        colidx.shrink_to_fit();
        values.shrink_to_fit();
    }
    m.bind(rows_, cols_);
    return m;
}

[[nodiscard]] Result<AnyCsrMatrix> CooMatrix::convert(
    IndexWidthChoice choice, std::size_t* duplicates) && {
    const auto raw = static_cast<std::int64_t>(nnz());
    const auto assemble_at = [&]<class Idx>(Idx) {
        return std::visit(
            [&](auto& coo) { return assemble<Idx>(coo, duplicates); },
            arrays_);
    };
    try {
        // Merging duplicates only lowers nnz, so the unmerged shape
        // resolves to the width the merged one would, unless the unmerged
        // count alone breaks the W32 nnz bound: then assemble wide and
        // resolve after the merge.
        if (choice == IndexWidthChoice::W64 ||
            width32_representable(rows_, cols_, raw) ||
            !width32_representable(rows_, cols_, 0)) {
            SPMV_ASSIGN_OR_RETURN(
                const IndexWidth width,
                resolve_index_width(choice, rows_, cols_, raw));
            if (width == IndexWidth::W32)
                return AnyCsrMatrix(assemble_at(Idx32{}));
            return AnyCsrMatrix(assemble_at(Idx64{}));
        }
        CsrMatrix64 wide = assemble_at(Idx64{});
        SPMV_ASSIGN_OR_RETURN(
            const IndexWidth width,
            resolve_index_width(choice, wide.rows(), wide.cols(),
                                wide.nnz()));
        if (width == IndexWidth::W64) return AnyCsrMatrix(std::move(wide));
        return AnyCsrMatrix(convert_csr_width<Idx32>(wide));
    } catch (const std::bad_alloc&) {
        return Error(ErrorCode::ResourceError,
                     "out of memory assembling CSR (" + std::to_string(raw) +
                         " entries)");
    }
}

[[nodiscard]] Result<AnyCsrMatrix> CooMatrix::to_csr_any(
    std::size_t* duplicates) && {
    return std::move(*this).convert(width_, duplicates);
}

[[nodiscard]] Result<CsrMatrix> CooMatrix::try_to_csr(std::size_t* duplicates) && {
    SPMV_ASSIGN_OR_RETURN(
        AnyCsrMatrix m,
        std::move(*this).convert(IndexWidthChoice::W32, duplicates));
    return std::move(m).take32();
}

CsrMatrix CooMatrix::to_csr() && {
    Result<CsrMatrix> m = std::move(*this).try_to_csr();
    if (!m.ok()) throw_status(std::move(m).to_error());
    return std::move(m).value();
}

}  // namespace spmvcache
