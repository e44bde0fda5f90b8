#include "kernels/cg.hpp"

#include <cmath>

#include "kernels/spmv.hpp"
#include "util/error.hpp"

namespace spmvcache {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
    return sum;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace

CgResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                            std::span<double> x, double tolerance,
                            std::int64_t max_iterations) {
    SPMV_EXPECTS(a.rows() == a.cols());
    SPMV_EXPECTS(b.size() == static_cast<std::size_t>(a.rows()));
    SPMV_EXPECTS(x.size() == static_cast<std::size_t>(a.rows()));
    const auto n = static_cast<std::size_t>(a.rows());

    for (auto& v : x) v = 0.0;
    std::vector<double> r(b.begin(), b.end());  // r = b - A*0 = b
    std::vector<double> p = r;
    std::vector<double> ap(n, 0.0);

    const double b_norm = std::sqrt(dot(b, b));
    if (b_norm == 0.0) return CgResult{0, 0.0, true};
    const double threshold = tolerance * b_norm;

    double rr = dot(r, r);
    CgResult result;
    for (std::int64_t it = 0; it < max_iterations; ++it) {
        spmv_csr_overwrite(a, p, ap);
        const double pap = dot(p, ap);
        if (pap <= 0.0) break;  // not SPD (or breakdown)
        const double alpha = rr / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        const double rr_next = dot(r, r);
        result.iterations = it + 1;
        result.residual_norm = std::sqrt(rr_next);
        if (result.residual_norm <= threshold) {
            result.converged = true;
            return result;
        }
        const double beta = rr_next / rr;
        for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
        rr = rr_next;
    }
    result.residual_norm = std::sqrt(rr);
    return result;
}

}  // namespace spmvcache
