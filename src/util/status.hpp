// Typed error subsystem for *input* errors (malformed files, overflowing
// dimensions, timeouts, injected faults). Programmer errors keep using the
// contract macros in util/error.hpp; everything a 490-matrix batch sweep
// must survive flows through Status/Result so callers can branch on an
// ErrorCode, attach context ("while reading size line"), and carry the
// input line number to the failure report instead of aborting the run.
//
//   Result<AnyCsrMatrix> r = try_read_matrix_market_any_file(path);
//   if (!r.ok()) log(r.error().render());            // typed, line-numbered
//
//   Status parse_size_line(...) {
//       SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.size_line"));
//       ...
//       return OkStatus();
//   }
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace spmvcache {

/// What went wrong, at the granularity a batch runner can act on.
enum class ErrorCode : std::uint8_t {
    Ok = 0,
    ParseError,        ///< malformed input (bad token, trailing garbage)
    ValidationError,   ///< well-formed but inconsistent (index out of range)
    UnsupportedError,  ///< valid Matrix Market, feature not implemented
    OverflowError,     ///< dimension/nnz arithmetic would overflow
    ResourceError,     ///< missing file, unreadable stream, allocation
    TimeoutError,      ///< per-matrix wall-clock budget exceeded
    OverloadedError,   ///< admission queue full; retry later (backpressure)
    Cancelled,         ///< caller asked the pipeline to stop
    FaultInjected,     ///< a test-armed fault::maybe_fail point fired
    InternalError,     ///< unexpected exception escaping a stage
    CacheStale,        ///< binary cache no longer matches its source file
};

/// Stable identifier ("ParseError") used in failure reports and tests.
[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// True for failures worth one more attempt (a missing resource or an
/// injected fault); batch retries them once, serve with backoff.
[[nodiscard]] constexpr bool is_transient(ErrorCode code) noexcept {
    return code == ErrorCode::ResourceError ||
           code == ErrorCode::FaultInjected;
}

/// A single typed error: code, human message, optional 1-based input line,
/// and a chain of context frames added by wrap() as it propagates out.
struct Error {
    ErrorCode code = ErrorCode::InternalError;
    std::string message;
    std::int64_t line = 0;              ///< 1-based input line, 0 = n/a
    std::vector<std::string> context;   ///< innermost first

    Error() = default;
    Error(ErrorCode c, std::string msg, std::int64_t input_line = 0)
        : code(c), message(std::move(msg)), line(input_line) {}

    /// Adds an outer context frame ("reading 'm.mtx'"). Returns by value so
    /// `e = std::move(e).wrap(...)` is a plain move, never a self-move.
    [[nodiscard]] Error wrap(std::string frame) && {
        context.push_back(std::move(frame));
        return std::move(*this);
    }

    /// "reading 'm.mtx': malformed size line (line 3) [ParseError]"
    [[nodiscard]] std::string render() const;
};

/// Success or a typed Error; the return type of fallible void operations.
class Status {
public:
    /// Constructs an OK status (see also OkStatus()).
    Status() = default;

    Status(ErrorCode code, std::string message, std::int64_t line = 0)
        : error_(Error(code, std::move(message), line)), has_error_(true) {
        SPMV_EXPECTS(code != ErrorCode::Ok);
    }
    /* implicit */ Status(Error e) : error_(std::move(e)), has_error_(true) {
        SPMV_EXPECTS(error_.code != ErrorCode::Ok);
    }

    [[nodiscard]] bool ok() const noexcept { return !has_error_; }
    explicit operator bool() const noexcept { return ok(); }

    /// ErrorCode::Ok when ok().
    [[nodiscard]] ErrorCode code() const noexcept {
        return has_error_ ? error_.code : ErrorCode::Ok;
    }

    /// Pre: !ok().
    [[nodiscard]] const Error& error() const {
        SPMV_EXPECTS(has_error_);
        return error_;
    }

    /// Pre: !ok(). Moves the error out (for propagation macros).
    [[nodiscard]] Error to_error() && {
        SPMV_EXPECTS(has_error_);
        return std::move(error_);
    }

    /// Adds a context frame when not ok; no-op on success. Returns by value
    /// (see Error::wrap).
    [[nodiscard]] Status wrap(std::string frame) && {
        if (has_error_) error_.context.push_back(std::move(frame));
        return std::move(*this);
    }

    /// "ok" or error().render().
    [[nodiscard]] std::string render() const {
        return has_error_ ? error_.render() : "ok";
    }

private:
    Error error_;
    bool has_error_ = false;
};

/// The canonical success value for Status-returning functions.
[[nodiscard]] inline Status OkStatus() { return {}; }

/// A value of type T or a typed Error (tl::expected-style).
template <typename T>
class Result {
public:
    /* implicit */ Result(T value) : state_(std::move(value)) {}
    /* implicit */ Result(Error e) : state_(std::move(e)) {
        SPMV_EXPECTS(std::get<Error>(state_).code != ErrorCode::Ok);
    }
    /* implicit */ Result(Status status)
        : state_(std::move(status).to_error()) {}

    [[nodiscard]] bool ok() const noexcept {
        return std::holds_alternative<T>(state_);
    }
    explicit operator bool() const noexcept { return ok(); }

    [[nodiscard]] ErrorCode code() const noexcept {
        return ok() ? ErrorCode::Ok : std::get<Error>(state_).code;
    }

    /// Pre: ok().
    [[nodiscard]] const T& value() const& {
        SPMV_EXPECTS(ok());
        return std::get<T>(state_);
    }
    [[nodiscard]] T& value() & {
        SPMV_EXPECTS(ok());
        return std::get<T>(state_);
    }
    [[nodiscard]] T&& value() && {
        SPMV_EXPECTS(ok());
        return std::get<T>(std::move(state_));
    }

    [[nodiscard]] T value_or(T fallback) const& {
        return ok() ? std::get<T>(state_) : std::move(fallback);
    }

    /// Pre: !ok().
    [[nodiscard]] const Error& error() const {
        SPMV_EXPECTS(!ok());
        return std::get<Error>(state_);
    }

    /// Pre: !ok(). Moves the error out (for propagation macros).
    [[nodiscard]] Error to_error() && {
        SPMV_EXPECTS(!ok());
        return std::get<Error>(std::move(state_));
    }

    /// Error as a Status (copies); OkStatus() when ok().
    [[nodiscard]] Status status() const {
        return ok() ? OkStatus() : Status(std::get<Error>(state_));
    }

    /// Adds a context frame to the error path; no-op on success. Returns by
    /// value (see Error::wrap).
    [[nodiscard]] Result wrap(std::string frame) && {
        if (!ok()) std::get<Error>(state_).context.push_back(std::move(frame));
        return std::move(*this);
    }

private:
    std::variant<T, Error> state_;
};

/// Exception bridge for the legacy throwing APIs: carries the typed Error
/// and derives from std::runtime_error so pre-Status callers keep working.
class StatusError : public std::runtime_error {
public:
    explicit StatusError(Error e)
        : std::runtime_error(e.render()), error_(std::move(e)) {}

    [[nodiscard]] const Error& error() const noexcept { return error_; }
    [[nodiscard]] ErrorCode code() const noexcept { return error_.code; }

private:
    Error error_;
};

/// Pre: !ok(). Throws the result/status as a StatusError.
[[noreturn]] inline void throw_status(Error e) {
    throw StatusError(std::move(e));
}

/// Maps an in-flight exception to a typed Error, for stage boundaries that
/// must never leak exceptions (the batch runner): StatusError keeps its
/// error, ContractViolation and unknown exceptions become InternalError,
/// bad_alloc becomes ResourceError.
[[nodiscard]] Error error_from_exception(const std::exception& e);

}  // namespace spmvcache

/// Propagates the error of a Status- or Result-returning expression.
/// Decay-copies the operand (moves from prvalues), so any value category —
/// including chained `.wrap()` calls — stays safe.
#define SPMV_RETURN_IF_ERROR(expr)                                            \
    do {                                                                      \
        auto spmv_status_ = (expr);                                           \
        if (!spmv_status_.ok())                                               \
            return std::move(spmv_status_).to_error();                        \
    } while (0)

#define SPMV_STATUS_CONCAT_INNER(a, b) a##b
#define SPMV_STATUS_CONCAT(a, b) SPMV_STATUS_CONCAT_INNER(a, b)

/// SPMV_ASSIGN_OR_RETURN(auto m, try_read(...)); — unwraps a Result or
/// propagates its error to the caller.
#define SPMV_ASSIGN_OR_RETURN(lhs, rexpr)                                     \
    auto SPMV_STATUS_CONCAT(spmv_result_, __LINE__) = (rexpr);                \
    if (!SPMV_STATUS_CONCAT(spmv_result_, __LINE__).ok())                     \
        return std::move(SPMV_STATUS_CONCAT(spmv_result_, __LINE__))          \
            .to_error();                                                      \
    lhs = std::move(SPMV_STATUS_CONCAT(spmv_result_, __LINE__)).value()
