#include "kernels/spmv.hpp"

#include "util/error.hpp"

namespace spmvcache {

template <class Idx>
void spmv_csr(const BasicCsrView<Idx>& a, std::span<const double> x,
              std::span<double> y) {
    SPMV_EXPECTS(x.size() == static_cast<std::size_t>(a.cols()));
    SPMV_EXPECTS(y.size() == static_cast<std::size_t>(a.rows()));
    const auto rowptr = a.rowptr();
    const auto colidx = a.colidx();
    const auto values = a.values();
    for (std::int64_t r = 0; r < a.rows(); ++r) {
        double acc = y[static_cast<std::size_t>(r)];
        const auto begin = static_cast<std::int64_t>(
            rowptr[static_cast<std::size_t>(r)]);
        const auto end = static_cast<std::int64_t>(
            rowptr[static_cast<std::size_t>(r) + 1]);
        for (std::int64_t i = begin; i < end; ++i) {
            acc += values[static_cast<std::size_t>(i)] *
                   x[static_cast<std::size_t>(
                       colidx[static_cast<std::size_t>(i)])];
        }
        y[static_cast<std::size_t>(r)] = acc;
    }
}

template <class Idx>
void spmv_csr_overwrite(const BasicCsrView<Idx>& a, std::span<const double> x,
                        std::span<double> y) {
    SPMV_EXPECTS(y.size() == static_cast<std::size_t>(a.rows()));
    for (auto& v : y) v = 0.0;
    spmv_csr(a, x, y);
}

template void spmv_csr<Idx32>(const BasicCsrView<Idx32>&,
                              std::span<const double>, std::span<double>);
template void spmv_csr<Idx64>(const BasicCsrView<Idx64>&,
                              std::span<const double>, std::span<double>);
template void spmv_csr_overwrite<Idx32>(const BasicCsrView<Idx32>&,
                                        std::span<const double>,
                                        std::span<double>);
template void spmv_csr_overwrite<Idx64>(const BasicCsrView<Idx64>&,
                                        std::span<const double>,
                                        std::span<double>);

}  // namespace spmvcache
