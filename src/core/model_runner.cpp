#include "core/model_runner.hpp"

#include "core/deadline.hpp"
#include "model/method_a.hpp"
#include "model/method_b.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace spmvcache {

const char* to_string(ModelMethod method) noexcept {
    return method == ModelMethod::B ? "b" : "a";
}

[[nodiscard]] Result<ModelMethod> parse_model_method(const std::string& text) {
    const std::string lower = to_lower(text);
    if (lower == "a") return ModelMethod::A;
    if (lower == "b") return ModelMethod::B;
    return Error(ErrorCode::ValidationError,
                 "unknown model method '" + text + "' (expected a or b)");
}

[[nodiscard]] Result<ModelResult> run_model(const LoadedMatrix& m,
                                            const ModelOptions& options,
                                            ModelMethod method) {
    SPMV_EXPECTS(m.keepalive() != nullptr);
    return run_with_deadline<ModelResult>(
        options.timeout_seconds,
        [view = m.view, keepalive = m.keepalive(), options,
         method]() -> Result<ModelResult> {
            (void)keepalive;  // pins the matrix bytes for abandoned workers
            return method == ModelMethod::B ? run_method_b(view, options)
                                            : run_method_a(view, options);
        });
}

}  // namespace spmvcache
