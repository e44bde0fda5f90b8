// Deadline-aware front door to the miss model: the one-shot CLI
// (`predict`/`tune` with --timeout) and every `spmvcache serve` request
// run the model through this wrapper so they share a single wall-clock
// budget mechanism (ModelOptions::timeout_seconds via core/deadline.hpp)
// and a single exception boundary (escaping exceptions become typed
// errors, never aborts).
#pragma once

#include "core/matrix_source.hpp"
#include "model/options.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Which prediction method to run (paper §4: stack-distance variants).
enum class ModelMethod : std::uint8_t { A, B };

[[nodiscard]] const char* to_string(ModelMethod method) noexcept;

/// ModelMethod from "a"/"b" (case-insensitive); ValidationError otherwise.
[[nodiscard]] Result<ModelMethod> parse_model_method(const std::string& text);

/// Runs method A or B over a cache-aware handle (core/matrix_source.hpp)
/// honoring options.timeout_seconds. An expired deadline abandons the
/// computation on a detached thread (see core/deadline.hpp); the handle's
/// keepalive() rides into that worker, so owned and mmapped matrices alike
/// outlive it.
[[nodiscard]] Result<ModelResult> run_model(const LoadedMatrix& m,
                                            const ModelOptions& options,
                                            ModelMethod method);

}  // namespace spmvcache
