// Tiny command-line parser shared by the CLI, the bench harnesses and the
// examples. Supports --name value, --name=value, and boolean --flag forms;
// a flag named as a switch never takes the next argument as its value.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace spmvcache {

/// Strict whole-string integer parse (from_chars; optional leading +).
/// ParseError on garbage, OverflowError when out of int64 range — the
/// typed replacement for unchecked strtoll.
[[nodiscard]] Result<std::int64_t> parse_int(std::string_view text);

/// Strict whole-string double parse; ParseError on garbage or overflow.
[[nodiscard]] Result<double> parse_double(std::string_view text);

/// Parses argv into named options; unknown positional arguments are kept in
/// order and retrievable via positionals().
class CliParser {
public:
    /// `switches` take a value only as --name=value: a bare --name leaves
    /// the next argument a positional.
    CliParser(int argc, const char* const* argv,
              std::span<const std::string_view> switches = {});

    /// True if --name was present (with or without a value).
    [[nodiscard]] bool has(const std::string& name) const;

    [[nodiscard]] std::string get(const std::string& name,
                                  const std::string& fallback) const;
    /// get_int and get_double throw a StatusError carrying ParseError for
    /// a value they cannot read, an out-of-range one included.
    [[nodiscard]] std::int64_t get_int(const std::string& name,
                                       std::int64_t fallback) const;
    [[nodiscard]] double get_double(const std::string& name,
                                    double fallback) const;
    [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

    /// OkStatus when every --flag given is in `known`; otherwise a
    /// ValidationError naming the first one that is not, as a flag
    /// `command` does not take.
    [[nodiscard]] Status expect_only(std::span<const std::string_view> known,
                                     std::string_view command) const;

    [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
        return positionals_;
    }

    [[nodiscard]] const std::string& program() const noexcept {
        return program_;
    }

private:
    [[nodiscard]] std::optional<std::string> find(
        const std::string& name) const;

    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positionals_;
};

}  // namespace spmvcache
