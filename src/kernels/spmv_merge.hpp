// Merge-path search for merge-based CSR SpMV after Merrill & Garland
// [PPoPP'16], which the paper names as the standard mitigation for
// row-imbalanced matrices (§2.1).
//
// The (rowptr, nonzero-index) merge path is split into equal-length
// diagonals, so every thread does the same amount of work regardless of
// how nonzeros are distributed over rows; rows straddling a boundary are
// combined through partial-sum carry-out. The kernel engine's CsrMerge
// variant (kernels/engine.hpp) runs the pieces, one per worker.
#pragma once

#include <cstdint>

#include "sparse/csr_view.hpp"

namespace spmvcache {

/// Coordinate on the merge path: which row and which nonzero come next.
struct MergeCoordinate {
    std::int64_t row = 0;
    std::int64_t nonzero = 0;
};

/// Finds the merge-path coordinate of `diagonal` via binary search over
/// the rowptr "list" vs. the natural numbers (the nonzero indices).
/// Pre: 0 <= diagonal <= rows + nnz.
template <class Idx>
[[nodiscard]] MergeCoordinate merge_path_search(const BasicCsrView<Idx>& a,
                                                std::int64_t diagonal);

extern template MergeCoordinate merge_path_search<Idx32>(
    const BasicCsrView<Idx32>&, std::int64_t);
extern template MergeCoordinate merge_path_search<Idx64>(
    const BasicCsrView<Idx64>&, std::int64_t);

}  // namespace spmvcache
