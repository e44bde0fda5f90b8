// String helpers shared by harness and report output code.
#pragma once

#include <string>
#include <vector>

namespace spmvcache {

/// Splits on a single-character delimiter; empty fields preserved.
[[nodiscard]] std::vector<std::string> split(const std::string& s, char delim);

/// Trims ASCII whitespace from both ends.
[[nodiscard]] std::string trim(const std::string& s);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(const std::string& s,
                               const std::string& prefix);

/// Lower-cases ASCII letters.
[[nodiscard]] std::string to_lower(std::string s);

/// Escaped and quoted JSON string literal ("ab\"c" -> "\"ab\\\"c\"").
[[nodiscard]] std::string json_quote(const std::string& s);

/// Shortest-round-trip serialization of a double (to_chars); "null" for
/// a non-finite value, which JSON cannot represent.
[[nodiscard]] std::string json_double(double value);

}  // namespace spmvcache
