// Method (B): single-pass approximation from the x-vector access pattern
// (§3.2.2).
//
// Only the references to x — derived directly from colidx — are stack-
// processed. The interleaved references to the other data structures are
// accounted for analytically: their effect on x's reuse distances is a
// multiplicative scaling factor (s1 with partitioning, s2 without), and
// their own misses are the §3.1 streaming terms gated by the working-set
// classification. One pass prices the unpartitioned case and every
// requested way split simultaneously — the method's selling point.
#pragma once

#include "model/options.hpp"
#include "sparse/any_csr.hpp"
#include "sparse/csr_view.hpp"

namespace spmvcache {

/// Runs method (B); same result shape as method (A). Accepts either
/// physical index width; the analytic byte accounting (streaming terms,
/// s1/s2, working-set sizes) follows the storage width unless ModelOptions
/// pins it (paper_accounting).
[[nodiscard]] ModelResult run_method_b(const AnyCsrView& m,
                                       const ModelOptions& options);

}  // namespace spmvcache
