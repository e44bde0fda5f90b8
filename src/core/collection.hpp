// Collection driver: runs a per-matrix experiment over a suite of lazily
// generated matrices, optionally in parallel across host threads, with
// deterministic result ordering (results are indexed by suite position,
// not completion order).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sparse/gen/suite.hpp"

namespace spmvcache {

/// Options for a collection run.
struct CollectionOptions {
    /// Host worker threads (1 = sequential; experiments are independent).
    std::int64_t host_threads = 1;
};

/// Runs `experiment` for every spec; the result vector preserves suite
/// order and each finished matrix prints a one-line progress message to
/// stderr. Exceptions from an experiment are caught, reported on that
/// line, and the matrix is skipped (its `ok` flag is false).
template <class Result>
struct CollectionOutcome {
    std::string name;
    std::string family;
    bool ok = false;
    std::string error;
    Result result{};
};

template <class Result>
[[nodiscard]] std::vector<CollectionOutcome<Result>> run_collection(
    const std::vector<gen::MatrixSpec>& suite,
    const std::function<Result(const std::string& name, const CsrMatrix&)>&
        experiment,
    const CollectionOptions& options = {});

}  // namespace spmvcache

#include "core/collection_impl.hpp"
