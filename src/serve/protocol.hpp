// JSONL wire protocol of the serve daemon.
//
// Requests arrive one JSON object per line on stdin (or any istream);
// responses leave one JSON object per line, matched by "id". The parser
// here is deliberately minimal (objects, arrays, strings, numbers, bools,
// null; bounded nesting; typed errors instead of exceptions) — a hostile
// request must land in the typed-error layer, never in an abort or an
// unbounded allocation, so line length is bounded *while reading* and
// every malformed byte sequence maps to ParseError.
//
//   {"id":"r1","op":"predict","gen":"stencil2d5:64","threads":4}
//   {"id":"r1","ok":true,"code":"Ok","op":"predict","cache_hit":false,
//    "seconds":0.012,"retries":0,"payload":{...}}
//
// Doubles in payloads are serialized with shortest-round-trip to_chars, so
// a parsed payload reproduces the model's doubles bit-for-bit — the
// differential suite and the soak test rely on this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/matrix_source.hpp"
#include "sparse/matrix_stats.hpp"
#include "util/format.hpp"  // json_quote, json_double
#include "util/status.hpp"

namespace spmvcache {

struct MatrixFingerprint;
struct ModelResult;

/// Parsed JSON value (tree). Numbers keep their raw text so integer
/// precision survives and doubles can round-trip exactly.
struct Json {
    enum class Kind : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;  ///< string value, or raw number text
    std::vector<Json> items;  ///< array elements
    std::vector<std::pair<std::string, Json>> members;  ///< object fields

    /// Object member by key, nullptr when absent (or not an object).
    [[nodiscard]] const Json* find(const std::string& key) const noexcept;

    /// Number as int64 (ValidationError when not a number, not integral,
    /// or out of range).
    [[nodiscard]] Result<std::int64_t> to_int64() const;
};

/// Parses one complete JSON document; trailing garbage is a ParseError.
[[nodiscard]] Result<Json> parse_json(std::string_view input);

/// What a request asks for.
enum class RequestOp : std::uint8_t {
    Predict,   ///< model every sector config (method a/b)
    Tune,      ///< recommend the best sector config
    Stats,     ///< matrix statistics
    Health,    ///< daemon liveness + counters; never queued
    Shutdown,  ///< drain in-flight work and exit the loop
};

[[nodiscard]] const char* to_string(RequestOp op) noexcept;

/// One parsed request line.
struct ServeRequest {
    std::string id;  ///< echoed in the response ("req-N" when omitted)
    RequestOp op = RequestOp::Health;
    MatrixSource source;  ///< matrix ops only
    std::int64_t threads = 48;
    std::int64_t jobs = 1;
    std::string method = "a";  ///< predict only: "a" | "b"
    /// Per-request wall-clock budget; < 0 = use the server default.
    double timeout_seconds = -1.0;
    /// Sector-1 way counts to price; empty = the op's default list.
    std::vector<std::uint32_t> l2_ways;
    /// SHARDS sampling rate (ModelOptions::sample_rate) from the request's
    /// "approx" field: absent = 1 (exact), true = 0.01, a number = that
    /// rate (it must pass valid_sample_rate). Part of the plan-cache key —
    /// exact and sampled plans for the same matrix never alias.
    double sample_rate = 1.0;
};

/// Parses one request line (already length-bounded by read_line_bounded).
[[nodiscard]] Result<ServeRequest> parse_request(const std::string& line);

/// One response line (rendered by render_response).
struct ServeResponse {
    std::string id;
    std::string op;
    bool ok = false;
    ErrorCode code = ErrorCode::InternalError;
    std::string error;  ///< rendered error chain; empty when ok
    bool cache_hit = false;
    int retries = 0;
    double seconds = 0.0;
    /// Rate the request asked for (1 = exact); echoed in the envelope so
    /// every response states how its numbers were computed. The payload's
    /// own "sampled" field reports what the model actually did (an armed
    /// `reuse.sample` fault can degrade a sampled request to exact).
    double sample_rate = 1.0;
    std::string payload;  ///< serialized JSON object; empty when none
};

/// Single-line JSON rendering (no trailing newline).
[[nodiscard]] std::string render_response(const ServeResponse& response);

/// Payload builders (serialized JSON objects, cache-ready).
[[nodiscard]] std::string render_predict_payload(
    const ModelResult& result, const MatrixFingerprint& fp,
    const std::string& method, std::int64_t threads);
[[nodiscard]] std::string render_tune_payload(const ModelResult& result,
                                              const MatrixFingerprint& fp,
                                              std::int64_t threads);
[[nodiscard]] std::string render_stats_payload(const MatrixStats& stats,
                                               const MatrixFingerprint& fp);

/// Reads one '\n'-terminated line of at most `max_bytes` bytes.
/// ok(true) = line read into `out`; ok(false) = clean end of stream (EOF
/// or an interrupted read — the caller distinguishes via the drain flag);
/// ValidationError = the line exceeded `max_bytes` (the remainder of the
/// oversized line is consumed so the stream stays line-synchronized).
[[nodiscard]] Result<bool> read_line_bounded(std::istream& in,
                                             std::string& out,
                                             std::size_t max_bytes);

}  // namespace spmvcache
