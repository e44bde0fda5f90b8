#include "model/analytic.hpp"

#include "util/checked.hpp"
#include "util/error.hpp"

namespace spmvcache {

StreamingMisses streaming_misses(std::int64_t rows, std::int64_t nnz,
                                 std::uint64_t line_bytes,
                                 std::uint32_t colidx_bytes,
                                 std::uint32_t rowptr_bytes) {
    SPMV_EXPECTS(rows >= 0 && nnz >= 0);
    SPMV_EXPECTS(line_bytes >= 8);
    SPMV_EXPECTS(colidx_bytes == 4 || colidx_bytes == 8);
    SPMV_EXPECTS(rowptr_bytes == 4 || rowptr_bytes == 8);
    const auto m = static_cast<std::uint64_t>(rows);
    const auto k = static_cast<std::uint64_t>(nnz);
    // ceil(bytes / line) with both the product and the rounding addend
    // overflow-checked: the streaming terms are added to every method's
    // miss totals, so one wrapped byte count poisons all predictions.
    auto lines_for = [line_bytes](std::uint64_t elems,
                                  std::uint64_t elem_bytes) {
        std::uint64_t bytes = 0, rounded = 0;
        SPMV_EXPECTS(checked_mul(elems, elem_bytes, bytes));
        SPMV_EXPECTS(checked_add(bytes, line_bytes - 1, rounded));
        return rounded / line_bytes;
    };
    StreamingMisses s;
    s.values = lines_for(k, 8);
    s.colidx = lines_for(k, colidx_bytes);
    s.rowptr = lines_for(m + 1, rowptr_bytes);
    s.y = lines_for(m, 8);
    return s;
}

double scaling_factor_partitioned(std::int64_t rows, std::int64_t nnz,
                                  std::uint32_t rowptr_bytes) {
    SPMV_EXPECTS(rows >= 0 && nnz >= 1);
    SPMV_EXPECTS(rowptr_bytes == 4 || rowptr_bytes == 8);
    // checked_to_double contracts that M and K convert exactly (<= 2^53);
    // beyond that the s1 ratio would be computed from rounded operands.
    return ((8.0 + static_cast<double>(rowptr_bytes)) *
                checked_to_double(rows) / checked_to_double(nnz) +
            8.0) /
           8.0;
}

double scaling_factor_unpartitioned(std::int64_t rows, std::int64_t nnz,
                                    std::uint32_t colidx_bytes,
                                    std::uint32_t rowptr_bytes) {
    SPMV_EXPECTS(rows >= 0 && nnz >= 1);
    SPMV_EXPECTS(colidx_bytes == 4 || colidx_bytes == 8);
    SPMV_EXPECTS(rowptr_bytes == 4 || rowptr_bytes == 8);
    return ((8.0 + static_cast<double>(rowptr_bytes)) *
                checked_to_double(rows) / checked_to_double(nnz) +
            16.0 + static_cast<double>(colidx_bytes)) /
           8.0;
}

}  // namespace spmvcache
