// Executable CSR SpMV kernels — the code of Listing 1, runnable on the
// host. The trace generator and simulator *model* these kernels; the tests
// cross-check that modelled and executed access patterns agree, and the
// microbenchmarks time them natively. Parallel products run on the kernel
// engine (kernels/engine.hpp), whose every variant is checked against
// spmv_csr.
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"

namespace spmvcache {

/// y <- y + A x, sequential (exactly the loop nest of Listing 1), at
/// either physical index width.
/// Pre: x.size() == A.cols(), y.size() == A.rows().
template <class Idx>
void spmv_csr(const BasicCsrView<Idx>& a, std::span<const double> x,
              std::span<double> y);

/// y <- A x (overwrite), sequential; convenience for solvers.
template <class Idx>
void spmv_csr_overwrite(const BasicCsrView<Idx>& a, std::span<const double> x,
                        std::span<double> y);

extern template void spmv_csr<Idx32>(const BasicCsrView<Idx32>&,
                                     std::span<const double>,
                                     std::span<double>);
extern template void spmv_csr<Idx64>(const BasicCsrView<Idx64>&,
                                     std::span<const double>,
                                     std::span<double>);
extern template void spmv_csr_overwrite<Idx32>(const BasicCsrView<Idx32>&,
                                               std::span<const double>,
                                               std::span<double>);
extern template void spmv_csr_overwrite<Idx64>(const BasicCsrView<Idx64>&,
                                               std::span<const double>,
                                               std::span<double>);

// Owning-matrix conveniences: template argument deduction cannot see
// through BasicCsrMatrix -> BasicCsrView, so forward explicitly.
template <class Idx>
void spmv_csr(const BasicCsrMatrix<Idx>& a, std::span<const double> x,
              std::span<double> y) {
    spmv_csr(BasicCsrView<Idx>(a), x, y);
}

template <class Idx>
void spmv_csr_overwrite(const BasicCsrMatrix<Idx>& a,
                        std::span<const double> x, std::span<double> y) {
    spmv_csr_overwrite(BasicCsrView<Idx>(a), x, y);
}

}  // namespace spmvcache
