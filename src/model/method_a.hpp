// Method (A): full-trace reuse-distance model (§3.2.1).
//
// The SpMV memory trace is generated from the sparsity pattern (never from
// instrumentation), per-thread streams are interleaved round-robin within
// each shared L2 segment, and Kim et al.'s grouped LRU stack, with one
// group per priced capacity (reuse/capacity_stack.hpp), finds which of
// those capacities each reference's reuse distance reaches, exactly. Two
// stacks are kept, as the paper describes: one with all references in a
// single partition (sector cache off) and one with references split
// between partitions by the sector policy (Eq. 2).
//
// The paper counts one iteration after a warm-up iteration, so that only
// lines the cache cannot hold miss. The model streams each segment's
// trace once (model/replay.hpp): an access whose previous access to its
// line is in the same iteration has the same distance in every iteration,
// and each engine's period close (CapacityStackEngine::close_period)
// supplies the distances of the iteration's first accesses from the stack
// the pass leaves behind. The counts equal a warm-up pass plus a counted
// pass bit for bit, at half the stack work and with no trace buffer.
//
// One pass prices *every* requested way split at once: the reuse-distance
// histogram is evaluated at each partition capacity (the paper's stated
// advantage of reuse distance over per-size cache simulation).
#pragma once

#include "model/options.hpp"
#include "sparse/any_csr.hpp"
#include "sparse/csr_view.hpp"

namespace spmvcache {

/// Runs method (A). The result contains one entry per requested L2 way
/// option plus the unpartitioned case. Accepts either physical index
/// width (AnyCsrView converts implicitly from both concrete views); the
/// traffic accounting follows the storage width unless ModelOptions pins
/// it (paper_accounting).
[[nodiscard]] ModelResult run_method_a(const AnyCsrView& m,
                                       const ModelOptions& options);

}  // namespace spmvcache
