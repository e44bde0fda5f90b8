#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

namespace spmvcache {

namespace {

std::string_view trim_ws(std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
        s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
        s.remove_suffix(1);
    return s;
}

/// Throws the parse error of flag `name`'s value as a ParseError, whatever
/// code the parse gave it (an out-of-range integer is an OverflowError),
/// so every unreadable flag value is a usage error.
[[noreturn]] void throw_unreadable(Error e, const std::string& name) {
    e.code = ErrorCode::ParseError;
    throw_status(std::move(e).wrap("parsing --" + name));
}

}  // namespace

[[nodiscard]] Result<std::int64_t> parse_int(std::string_view text) {
    std::string_view s = trim_ws(text);
    if (!s.empty() && s.front() == '+') s.remove_prefix(1);
    std::int64_t out = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec == std::errc::result_out_of_range)
        return Error(ErrorCode::OverflowError,
                     "integer out of int64 range: '" + std::string(text) +
                         "'");
    if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty())
        return Error(ErrorCode::ParseError,
                     "not an integer: '" + std::string(text) + "'");
    return out;
}

[[nodiscard]] Result<double> parse_double(std::string_view text) {
    std::string_view s = trim_ws(text);
    if (!s.empty() && s.front() == '+') s.remove_prefix(1);
    double out = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if (ec != std::errc{} || ptr != s.data() + s.size() || s.empty())
        return Error(ErrorCode::ParseError,
                     "not a number: '" + std::string(text) + "'");
    return out;
}

CliParser::CliParser(int argc, const char* const* argv,
                     std::span<const std::string_view> switches) {
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals_.push_back(std::move(arg));
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
        } else if (std::find(switches.begin(), switches.end(), name) ==
                       switches.end() &&
                   i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        options_[name] = value;
    }
}

bool CliParser::has(const std::string& name) const {
    return options_.count(name) != 0;
}

std::optional<std::string> CliParser::find(const std::string& name) const {
    const auto it = options_.find(name);
    if (it == options_.end()) return std::nullopt;
    return it->second;
}

std::string CliParser::get(const std::string& name,
                           const std::string& fallback) const {
    const auto v = find(name);
    return v && !v->empty() ? *v : fallback;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
    const auto v = find(name);
    if (!v || v->empty()) return fallback;
    Result<std::int64_t> parsed = parse_int(*v);
    if (!parsed.ok()) throw_unreadable(std::move(parsed).to_error(), name);
    return parsed.value();
}

double CliParser::get_double(const std::string& name, double fallback) const {
    const auto v = find(name);
    if (!v || v->empty()) return fallback;
    Result<double> parsed = parse_double(*v);
    if (!parsed.ok()) throw_unreadable(std::move(parsed).to_error(), name);
    return parsed.value();
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
    const auto v = find(name);
    if (!v) return fallback;
    if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
    return false;
}

[[nodiscard]] Status CliParser::expect_only(
    std::span<const std::string_view> known, std::string_view command) const {
    for (const auto& option : options_) {
        if (std::find(known.begin(), known.end(), option.first) == known.end())
            return Error(ErrorCode::ValidationError,
                         std::string(command) + " does not take --" +
                             option.first);
    }
    return OkStatus();
}

}  // namespace spmvcache
