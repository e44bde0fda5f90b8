#include "serve/protocol.hpp"

#include <cmath>
#include <istream>
#include <utility>

#include "cachesim/a64fx.hpp"
#include "model/options.hpp"
#include "sparse/fingerprint.hpp"
#include "trace/sample.hpp"
#include "util/cli.hpp"

namespace spmvcache {

namespace {

/// Nesting bound: a hostile request must not recurse the parser off the
/// stack. Real requests are depth 2 (object with one array).
constexpr int kMaxJsonDepth = 32;

/// Recursive-descent JSON parser over a bounded string_view.
class JsonParser {
public:
    explicit JsonParser(std::string_view input) : input_(input) {}

    [[nodiscard]] Result<Json> parse() {
        Result<Json> value = parse_value(0);
        if (!value.ok()) return value;
        skip_whitespace();
        if (pos_ != input_.size())
            return fail("trailing garbage after JSON value");
        return value;
    }

private:
    [[nodiscard]] Error fail(const std::string& message) const {
        return Error(ErrorCode::ParseError,
                     message + " at byte " + std::to_string(pos_));
    }

    void skip_whitespace() {
        while (pos_ < input_.size() &&
               (input_[pos_] == ' ' || input_[pos_] == '\t' ||
                input_[pos_] == '\r' || input_[pos_] == '\n'))
            ++pos_;
    }

    [[nodiscard]] bool consume(char expected) {
        if (pos_ < input_.size() && input_[pos_] == expected) {
            ++pos_;
            return true;
        }
        return false;
    }

    [[nodiscard]] bool consume_word(std::string_view word) {
        if (input_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    [[nodiscard]] Result<Json> parse_value(int depth) {
        if (depth > kMaxJsonDepth) return fail("nesting too deep");
        skip_whitespace();
        if (pos_ >= input_.size()) return fail("unexpected end of input");
        const char c = input_[pos_];
        if (c == '{') return parse_object(depth);
        if (c == '[') return parse_array(depth);
        if (c == '"') return parse_string_value();
        if (c == 't' || c == 'f') return parse_bool();
        if (c == 'n') {
            if (!consume_word("null")) return fail("bad literal");
            return Json{};
        }
        return parse_number();
    }

    [[nodiscard]] Result<Json> parse_bool() {
        Json value;
        value.kind = Json::Kind::Bool;
        if (consume_word("true")) {
            value.boolean = true;
            return value;
        }
        if (consume_word("false")) {
            value.boolean = false;
            return value;
        }
        return fail("bad literal");
    }

    [[nodiscard]] Result<std::string> parse_string() {
        if (!consume('"')) return fail("expected '\"'");
        std::string out;
        while (pos_ < input_.size()) {
            const char c = input_[pos_];
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= input_.size()) break;
                const char esc = input_[pos_];
                ++pos_;
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        // Accept \uXXXX but only map the ASCII range; the
                        // protocol never emits non-ASCII and requests that
                        // do are preserved as '?' rather than rejected.
                        if (pos_ + 4 > input_.size())
                            return fail("truncated \\u escape");
                        std::uint32_t cp = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = input_[pos_ + static_cast<std::size_t>(i)];
                            cp <<= 4;
                            if (h >= '0' && h <= '9')
                                cp |= static_cast<std::uint32_t>(h - '0');
                            else if (h >= 'a' && h <= 'f')
                                cp |= static_cast<std::uint32_t>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F')
                                cp |= static_cast<std::uint32_t>(h - 'A' + 10);
                            else
                                return fail("bad \\u escape");
                        }
                        pos_ += 4;
                        out += cp < 0x80 ? static_cast<char>(cp) : '?';
                        break;
                    }
                    default: return fail("bad escape character");
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            out += c;
            ++pos_;
        }
        return fail("unterminated string");
    }

    [[nodiscard]] Result<Json> parse_string_value() {
        Result<std::string> s = parse_string();
        if (!s.ok()) return std::move(s).to_error();
        Json value;
        value.kind = Json::Kind::String;
        value.text = std::move(s).value();
        return value;
    }

    [[nodiscard]] Result<Json> parse_number() {
        const std::size_t start = pos_;
        if (pos_ < input_.size() && (input_[pos_] == '-' || input_[pos_] == '+'))
            ++pos_;
        while (pos_ < input_.size() &&
               ((input_[pos_] >= '0' && input_[pos_] <= '9') ||
                input_[pos_] == '.' || input_[pos_] == 'e' ||
                input_[pos_] == 'E' || input_[pos_] == '-' ||
                input_[pos_] == '+'))
            ++pos_;
        const std::string_view raw = input_.substr(start, pos_ - start);
        if (raw.empty()) return fail("expected a JSON value");
        Result<double> parsed = parse_double(raw);
        if (!parsed.ok())
            return std::move(parsed)
                .wrap("parsing JSON number '" + std::string(raw) + "'")
                .to_error();
        Json value;
        value.kind = Json::Kind::Number;
        value.number = parsed.value();
        value.text = std::string(raw);
        return value;
    }

    [[nodiscard]] Result<Json> parse_array(int depth) {
        if (!consume('[')) return fail("expected '['");
        Json value;
        value.kind = Json::Kind::Array;
        skip_whitespace();
        if (consume(']')) return value;
        while (true) {
            Result<Json> element = parse_value(depth + 1);
            if (!element.ok()) return element;
            value.items.push_back(std::move(element).value());
            skip_whitespace();
            if (consume(']')) return value;
            if (!consume(',')) return fail("expected ',' or ']'");
        }
    }

    [[nodiscard]] Result<Json> parse_object(int depth) {
        if (!consume('{')) return fail("expected '{'");
        Json value;
        value.kind = Json::Kind::Object;
        skip_whitespace();
        if (consume('}')) return value;
        while (true) {
            skip_whitespace();
            Result<std::string> key = parse_string();
            if (!key.ok()) return std::move(key).to_error();
            skip_whitespace();
            if (!consume(':')) return fail("expected ':'");
            Result<Json> member = parse_value(depth + 1);
            if (!member.ok()) return member;
            value.members.emplace_back(std::move(key).value(),
                                       std::move(member).value());
            skip_whitespace();
            if (consume('}')) return value;
            if (!consume(',')) return fail("expected ',' or '}'");
        }
    }

    std::string_view input_;
    std::size_t pos_ = 0;
};

/// Pulls an optional integer member into `out` (type-checked).
[[nodiscard]] Status read_int_member(const Json& object,
                                     const std::string& key,
                                     std::int64_t& out) {
    const Json* member = object.find(key);
    if (member == nullptr) return OkStatus();
    Result<std::int64_t> value = member->to_int64();
    if (!value.ok())
        return std::move(value).wrap("field '" + key + "'").to_error();
    out = value.value();
    return OkStatus();
}

}  // namespace

const Json* Json::find(const std::string& key) const noexcept {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : members)
        if (name == key) return &value;
    return nullptr;
}

[[nodiscard]] Result<std::int64_t> Json::to_int64() const {
    if (kind != Kind::Number)
        return Error(ErrorCode::ValidationError, "expected a number");
    Result<std::int64_t> exact = parse_int(text);
    if (exact.ok()) return exact;
    if (std::nearbyint(number) != number ||
        std::fabs(number) > 9.2e18)
        return Error(ErrorCode::ValidationError,
                     "expected an integer, got '" + text + "'");
    return static_cast<std::int64_t>(number);
}

[[nodiscard]] Result<Json> parse_json(std::string_view input) {
    return JsonParser(input).parse();
}

const char* to_string(RequestOp op) noexcept {
    switch (op) {
        case RequestOp::Predict: return "predict";
        case RequestOp::Tune: return "tune";
        case RequestOp::Stats: return "stats";
        case RequestOp::Health: return "health";
        case RequestOp::Shutdown: return "shutdown";
    }
    return "unknown";
}

[[nodiscard]] Result<ServeRequest> parse_request(const std::string& line) {
    Result<Json> parsed = parse_json(line);
    if (!parsed.ok())
        return std::move(parsed).wrap("parsing request").to_error();
    const Json& root = parsed.value();
    if (root.kind != Json::Kind::Object)
        return Error(ErrorCode::ParseError,
                     "request must be a JSON object");

    ServeRequest request;
    if (const Json* id = root.find("id"); id != nullptr) {
        if (id->kind != Json::Kind::String)
            return Error(ErrorCode::ValidationError,
                         "field 'id' must be a string");
        request.id = id->text;
    }

    const Json* op = root.find("op");
    if (op == nullptr || op->kind != Json::Kind::String)
        return Error(ErrorCode::ValidationError,
                     "request needs a string field 'op' "
                     "(predict|tune|stats|health|shutdown)");
    if (op->text == "predict") request.op = RequestOp::Predict;
    else if (op->text == "tune") request.op = RequestOp::Tune;
    else if (op->text == "stats") request.op = RequestOp::Stats;
    else if (op->text == "health") request.op = RequestOp::Health;
    else if (op->text == "shutdown") request.op = RequestOp::Shutdown;
    else
        return Error(ErrorCode::ValidationError,
                     "unknown op '" + op->text + "'");

    if (const Json* matrix = root.find("matrix"); matrix != nullptr) {
        if (matrix->kind != Json::Kind::String)
            return Error(ErrorCode::ValidationError,
                         "field 'matrix' must be a string path");
        request.source.path = matrix->text;
    }
    if (const Json* gen = root.find("gen"); gen != nullptr) {
        if (gen->kind != Json::Kind::String)
            return Error(ErrorCode::ValidationError,
                         "field 'gen' must be a FAMILY:N spec string");
        request.source.gen_spec = gen->text;
    }
    if (!request.source.path.empty() && !request.source.gen_spec.empty())
        return Error(ErrorCode::ValidationError,
                     "give either 'matrix' or 'gen', not both");
    if (const Json* strict = root.find("strict"); strict != nullptr) {
        if (strict->kind != Json::Kind::Bool)
            return Error(ErrorCode::ValidationError,
                         "field 'strict' must be a bool");
        request.source.strict_parse = strict->boolean;
    }
    if (const Json* width = root.find("width"); width != nullptr) {
        if (width->kind != Json::Kind::String)
            return Error(ErrorCode::ValidationError,
                         "field 'width' must be \"auto\", \"32\" or \"64\"");
        Result<IndexWidthChoice> choice =
            parse_index_width_choice(width->text);
        if (!choice.ok())
            return std::move(choice)
                .wrap("parsing field 'width'")
                .to_error();
        request.source.index_width = choice.value();
    }

    std::int64_t seed = 42;
    SPMV_RETURN_IF_ERROR(read_int_member(root, "seed", seed));
    request.source.seed = static_cast<std::uint64_t>(seed);
    SPMV_RETURN_IF_ERROR(read_int_member(root, "threads", request.threads));
    SPMV_RETURN_IF_ERROR(read_int_member(root, "jobs", request.jobs));
    // The served model simulates a64fx_default(); more threads than it has
    // cores is a bad request, refused here before it reaches the model.
    const std::int64_t cores = a64fx_default().cores;
    if (request.threads < 1 || request.threads > cores)
        return Error(ErrorCode::ValidationError,
                     "field 'threads' out of range [1, " +
                         std::to_string(cores) + "]");
    if (request.jobs < 0 || request.jobs > 4096)
        return Error(ErrorCode::ValidationError,
                     "field 'jobs' out of range [0, 4096]");

    if (const Json* method = root.find("method"); method != nullptr) {
        if (method->kind != Json::Kind::String ||
            (method->text != "a" && method->text != "b"))
            return Error(ErrorCode::ValidationError,
                         "field 'method' must be \"a\" or \"b\"");
        request.method = method->text;
    }

    if (const Json* timeout = root.find("timeout"); timeout != nullptr) {
        if (timeout->kind != Json::Kind::Number)
            return Error(ErrorCode::ValidationError,
                         "field 'timeout' must be a number of seconds");
        request.timeout_seconds = timeout->number;
    }

    if (const Json* approx = root.find("approx"); approx != nullptr) {
        if (approx->kind == Json::Kind::Bool) {
            request.sample_rate = approx->boolean ? 0.01 : 1.0;
        } else if (approx->kind == Json::Kind::Number) {
            if (!valid_sample_rate(approx->number))
                return Error(ErrorCode::ValidationError,
                             "field 'approx' must be a rate in [2^-53, 1]");
            request.sample_rate = approx->number;
        } else {
            return Error(ErrorCode::ValidationError,
                         "field 'approx' must be a bool or a rate in "
                         "[2^-53, 1]");
        }
    }

    if (const Json* ways = root.find("l2_ways"); ways != nullptr) {
        if (ways->kind != Json::Kind::Array)
            return Error(ErrorCode::ValidationError,
                         "field 'l2_ways' must be an array of way counts");
        for (const Json& way : ways->items) {
            Result<std::int64_t> value = way.to_int64();
            if (!value.ok())
                return std::move(value).wrap("field 'l2_ways'").to_error();
            if (value.value() < 1 || value.value() > 15)
                return Error(ErrorCode::ValidationError,
                             "l2_ways entries must be in [1, 15]");
            request.l2_ways.push_back(
                static_cast<std::uint32_t>(value.value()));
        }
        if (request.l2_ways.size() > 16)
            return Error(ErrorCode::ValidationError,
                         "at most 16 l2_ways entries per request");
    }

    const bool needs_matrix = request.op == RequestOp::Predict ||
                              request.op == RequestOp::Tune ||
                              request.op == RequestOp::Stats;
    if (needs_matrix && request.source.empty())
        return Error(ErrorCode::ValidationError,
                     std::string("op '") + to_string(request.op) +
                         "' needs a 'matrix' path or 'gen' spec");
    return request;
}

std::string render_response(const ServeResponse& response) {
    std::string out = "{\"id\":" + json_quote(response.id);
    out += ",\"op\":" + json_quote(response.op);
    out += ",\"ok\":";
    out += response.ok ? "true" : "false";
    out += ",\"code\":";
    out += json_quote(to_string(response.code));
    if (!response.ok) out += ",\"error\":" + json_quote(response.error);
    out += ",\"cache_hit\":";
    out += response.cache_hit ? "true" : "false";
    out += ",\"retries\":" + std::to_string(response.retries);
    out += ",\"seconds\":" + json_double(response.seconds);
    out += ",\"sample_rate\":" + json_double(response.sample_rate);
    if (!response.payload.empty()) out += ",\"payload\":" + response.payload;
    out += "}";
    return out;
}

namespace {

void append_config_array(std::string& out, const ModelResult& result) {
    out += "\"configs\":[";
    for (std::size_t i = 0; i < result.configs.size(); ++i) {
        const ConfigPrediction& c = result.configs[i];
        if (i > 0) out += ',';
        out += "{\"l2_sector_ways\":" + std::to_string(c.l2_sector_ways);
        out += ",\"l2_misses\":" + json_double(c.l2_misses);
        out += ",\"l2_x_misses\":" + json_double(c.l2_x_misses);
        out += '}';
    }
    out += ']';
}

void append_fingerprint(std::string& out, const MatrixFingerprint& fp) {
    out += "\"fingerprint\":" + json_quote(to_string(fp));
    out += ",\"rows\":" + std::to_string(fp.rows);
    out += ",\"cols\":" + std::to_string(fp.cols);
    out += ",\"nnz\":" + std::to_string(fp.nnz);
}

/// What the model actually did (cached payloads must say whether their
/// numbers are exact or SHARDS estimates, because cache hits replay them
/// verbatim for the lifetime of the plan).
void append_sampling(std::string& out, const ModelResult& result) {
    out += ",\"sampled\":";
    out += result.sampled ? "true" : "false";
    out += ",\"sample_rate\":" + json_double(result.sample_rate);
    out += ",\"sampled_refs\":" + std::to_string(result.sampled_refs);
}

}  // namespace

std::string render_predict_payload(const ModelResult& result,
                                   const MatrixFingerprint& fp,
                                   const std::string& method,
                                   std::int64_t threads) {
    std::string out = "{";
    append_fingerprint(out, fp);
    out += ",\"method\":" + json_quote(method);
    out += ",\"threads\":" + std::to_string(threads);
    append_sampling(out, result);
    out += ",\"x_traffic_fraction\":" +
           json_double(result.x_traffic_fraction);
    out += ',';
    append_config_array(out, result);
    out += '}';
    return out;
}

std::string render_tune_payload(const ModelResult& result,
                                const MatrixFingerprint& fp,
                                std::int64_t threads) {
    const ConfigPrediction& best = result.best();
    const double baseline = result.configs.front().l2_misses;
    const double reduction =
        baseline > 0.0 ? 100.0 * (baseline - best.l2_misses) / baseline
                       : 0.0;
    std::string out = "{";
    append_fingerprint(out, fp);
    out += ",\"threads\":" + std::to_string(threads);
    append_sampling(out, result);
    out += ",\"best_l2_ways\":" + std::to_string(best.l2_sector_ways);
    out += ",\"best_l2_misses\":" + json_double(best.l2_misses);
    out += ",\"predicted_reduction_percent\":" + json_double(reduction);
    out += ',';
    append_config_array(out, result);
    out += '}';
    return out;
}

std::string render_stats_payload(const MatrixStats& stats,
                                 const MatrixFingerprint& fp) {
    std::string out = "{";
    append_fingerprint(out, fp);
    out += ",\"mean_nnz_per_row\":" + json_double(stats.mean_nnz_per_row);
    out += ",\"stddev_nnz_per_row\":" +
           json_double(stats.stddev_nnz_per_row);
    out += ",\"cv_nnz_per_row\":" + json_double(stats.cv_nnz_per_row);
    out += ",\"max_nnz_per_row\":" + std::to_string(stats.max_nnz_per_row);
    out += ",\"empty_rows\":" + std::to_string(stats.empty_rows);
    out += ",\"bandwidth\":" + std::to_string(stats.bandwidth);
    out += ",\"matrix_bytes\":" + std::to_string(stats.matrix_bytes);
    out += ",\"working_set_bytes\":" +
           std::to_string(stats.working_set_bytes);
    out += ",\"index_width\":";
    out += stats.index_width == IndexWidth::W64 ? "64" : "32";
    out += ",\"width32_ok\":";
    out += stats.width32_ok ? "true" : "false";
    out += '}';
    return out;
}

[[nodiscard]] Result<bool> read_line_bounded(std::istream& in, std::string& out,
                               std::size_t max_bytes) {
    out.clear();
    char c = 0;
    while (in.get(c)) {
        if (c == '\n') return true;
        if (out.size() >= max_bytes) {
            // Oversized: discard the rest of the line so the next read
            // starts on a fresh request, then report the typed error.
            while (in.get(c) && c != '\n') {
            }
            return Error(ErrorCode::ValidationError,
                         "request line exceeds " +
                             std::to_string(max_bytes) + " bytes");
        }
        out += c;
    }
    // Stream ended (EOF, or EINTR from a drain signal): a non-empty
    // partial line without a newline is still handed to the caller.
    return !out.empty();
}

}  // namespace spmvcache
