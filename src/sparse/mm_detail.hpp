// Internal Matrix Market parsing primitives shared by the serial parser
// (matrix_market.cpp) and the chunked parallel parser (mm_parallel.cpp).
//
// Both front ends must agree bit-for-bit: same line splitting and length
// rule, same accepted grammar, same typed error codes and messages, same
// double parsing (std::from_chars over the identical byte range). Keeping
// the per-line, per-token and per-entry logic in one header is what makes
// the parallel parser's differential test against the serial parser a
// real invariant instead of a coincidence.
//
// Not installed API — include only from sparse/*.cpp and tests.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "sparse/index_width.hpp"
#include "util/checked.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"
#include "util/status.hpp"

namespace spmvcache::mm_detail {

/// Banner facts that change entry-line interpretation.
struct MmHeader {
    bool pattern = false;
    bool symmetric = false;
    bool skew = false;
};

/// The size line: declared dimensions and stored (file) nnz.
struct MmSize {
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t nnz = 0;
};

/// One validated entry line, 1-based indices as written in the file.
struct MmEntry {
    std::int64_t row = 0;
    std::int64_t col = 0;
    double value = 1.0;
};

/// Splits an in-memory byte range into lines, the one line rule of both
/// parsers: '\n' ends a line (a '\r' before it stays in the line and
/// counts towards its length), a trailing fragment without '\n' is a line
/// once the range reaches the end of the input, and a line longer than
/// max_line_bytes is a ParseError attributed to that (not yet counted)
/// line. Line numbers are 1-based and carry across rebase(), so a block
/// reader can feed one cursor buffer after buffer.
class BufLineCursor {
public:
    /// `ends_input`: `text` runs to the end of the input.
    BufLineCursor(std::string_view text, std::size_t max_line_bytes,
                  bool ends_input = true)
        : text_(text),
          max_line_bytes_(max_line_bytes),
          ends_input_(ends_input) {}

    /// true = a line is available via view(); false = the range is used
    /// up. At the end of a range that does not end the input, pos() marks
    /// the start of an unfinished line the next range must begin with.
    [[nodiscard]] Result<bool> next() {
        if (pos_ >= text_.size()) return false;
        const char* begin = text_.data() + pos_;
        const std::size_t rest = text_.size() - pos_;
        const char* nl =
            static_cast<const char*>(std::memchr(begin, '\n', rest));
        const std::size_t len =
            nl != nullptr ? static_cast<std::size_t>(nl - begin) : rest;
        if (len > max_line_bytes_)
            return Error(ErrorCode::ParseError,
                         "line exceeds maximum length of " +
                             std::to_string(max_line_bytes_) + " bytes",
                         line_no_ + 1);
        if (nl == nullptr && !ends_input_) return false;
        ++line_no_;
        view_ = std::string_view(begin, len);
        pos_ += len + (nl != nullptr ? 1 : 0);
        return true;
    }

    /// Continues on `text`, the next range of the input; the caller has
    /// moved the unfinished line (pos() onwards) to its front.
    void rebase(std::string_view text, bool ends_input) noexcept {
        text_ = text;
        ends_input_ = ends_input;
        pos_ = 0;
    }

    [[nodiscard]] std::string_view view() const noexcept { return view_; }
    [[nodiscard]] std::int64_t line_no() const noexcept { return line_no_; }
    /// Byte offset of the first unread character.
    [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

private:
    std::string_view text_;
    std::size_t max_line_bytes_;
    bool ends_input_;
    std::size_t pos_ = 0;
    std::string_view view_;
    std::int64_t line_no_ = 0;
};

inline const char* skip_ws(const char* p, const char* end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    return p;
}

inline bool rest_is_blank(const char* p, const char* end) {
    return skip_ws(p, end) == end;
}

inline bool parse_i64(const char*& p, const char* end, std::int64_t& out) {
    p = skip_ws(p, end);
    if (p < end && *p == '+') ++p;  // from_chars rejects a leading '+'
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || ptr == p) return false;
    p = ptr;
    return true;
}

inline bool parse_f64(const char*& p, const char* end, double& out) {
    p = skip_ws(p, end);
    if (p < end && *p == '+') ++p;
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || ptr == p) return false;
    p = ptr;
    return true;
}

inline bool is_comment_or_blank(std::string_view line) {
    const char* p = skip_ws(line.data(), line.data() + line.size());
    return p == line.data() + line.size() || *p == '%';
}

[[nodiscard]] inline Result<MmHeader> parse_banner(std::string_view line,
                                                   std::int64_t line_no) {
    std::istringstream is{std::string(line)};
    std::string banner, object, format, field, symmetry;
    is >> banner >> object >> format >> field >> symmetry;
    const auto bad = [line_no](std::string what) {
        return Error(ErrorCode::ParseError, std::move(what), line_no);
    };
    if (banner != "%%MatrixMarket") return bad("not a Matrix Market file");
    if (to_lower(object) != "matrix")
        return Error(ErrorCode::UnsupportedError,
                     "unsupported MatrixMarket object: " + object, line_no);
    if (to_lower(format) != "coordinate")
        return Error(ErrorCode::UnsupportedError,
                     "only coordinate format is supported", line_no);
    const std::string f = to_lower(field);
    if (f != "real" && f != "integer" && f != "pattern")
        return Error(ErrorCode::UnsupportedError,
                     "unsupported MatrixMarket field: " + field, line_no);
    const std::string s = to_lower(symmetry);
    if (s != "general" && s != "symmetric" && s != "skew-symmetric")
        return Error(ErrorCode::UnsupportedError,
                     "unsupported MatrixMarket symmetry: " + symmetry,
                     line_no);
    MmHeader h;
    h.pattern = (f == "pattern");
    h.symmetric = (s == "symmetric" || s == "skew-symmetric");
    h.skew = (s == "skew-symmetric");
    return h;
}

[[nodiscard]] inline Result<MmSize> parse_size_line(
    std::string_view line, std::int64_t line_no, const MmHeader& header,
    IndexWidthChoice width = IndexWidthChoice::W32) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.size_line"));
    MmSize size;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    if (!parse_i64(p, end, size.rows) || !parse_i64(p, end, size.cols) ||
        !parse_i64(p, end, size.nnz))
        return Error(ErrorCode::ParseError,
                     "malformed size line (expected 'rows cols nnz')",
                     line_no);
    // A fourth token means this is not a coordinate size line (array
    // format, or a corrupted file) — never accept trailing garbage here.
    if (!rest_is_blank(p, end))
        return Error(ErrorCode::ParseError,
                     "trailing garbage after size line", line_no);
    if (size.rows < 0 || size.cols < 0 || size.nnz < 0)
        return Error(ErrorCode::ValidationError,
                     "negative Matrix Market dimensions", line_no);
    if (header.symmetric && size.rows != size.cols)
        return Error(ErrorCode::ValidationError,
                     "symmetric file with non-square dimensions", line_no);
    // int64 overflow is diagnosed before any width policy: a file whose
    // rows*cols does not even fit int64 is broken at every index width.
    std::int64_t cells = 0;
    if (!checked_mul(size.rows, size.cols, cells))
        return Error(ErrorCode::OverflowError,
                     "rows*cols overflows int64", line_no);
    if (size.nnz > cells)
        return Error(ErrorCode::ValidationError,
                     "declared nnz " + std::to_string(size.nnz) +
                         " exceeds rows*cols = " + std::to_string(cells),
                     line_no);
    // The W32 bounds are enforced here, before any entry is read, only
    // when the caller *forces* the narrow layout; Auto resolves the width
    // after the size line (sparse/index_width.hpp) and W64 has no 32-bit
    // bounds at all.
    if (width == IndexWidthChoice::W32) {
        if (size.cols > std::numeric_limits<std::int32_t>::max())
            return Error(ErrorCode::UnsupportedError,
                         "cols exceed int32 (CSR layout stores 4-byte column "
                         "indices)",
                         line_no);
        if (header.symmetric &&
            size.rows > std::numeric_limits<std::int32_t>::max())
            return Error(ErrorCode::UnsupportedError,
                         "symmetric expansion needs rows to fit int32",
                         line_no);
        if (!width32_representable(size.rows, size.cols,
                                   header.symmetric ? 0 : size.nnz))
            return Error(ErrorCode::UnsupportedError,
                         "matrix does not fit the forced 32-bit index layout",
                         line_no);
    }
    std::int64_t logical = size.nnz;
    if (header.symmetric &&
        !checked_mul<std::int64_t>(size.nnz, 2, logical))
        return Error(ErrorCode::OverflowError,
                     "symmetric nnz expansion overflows int64", line_no);
    (void)logical;
    return size;
}

/// Parses and validates one non-comment entry line. Performs every
/// per-entry check except the cross-entry duplicate test (which needs
/// global state and stays with the caller). Checks run in the serial
/// parser's historical order so both parsers report the same first error.
[[nodiscard]] inline Result<MmEntry> parse_entry_line(std::string_view line,
                                                      std::int64_t line_no,
                                                      const MmHeader& header,
                                                      const MmSize& size,
                                                      bool strict) {
    MmEntry entry;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    if (!parse_i64(p, end, entry.row) || !parse_i64(p, end, entry.col))
        return Error(ErrorCode::ParseError,
                     "malformed entry line (expected 'row col[ value]')",
                     line_no);
    if (!header.pattern && !parse_f64(p, end, entry.value))
        return Error(ErrorCode::ParseError,
                     "missing or non-numeric value on entry line", line_no);
    if (strict && !rest_is_blank(p, end))
        return Error(ErrorCode::ParseError,
                     "trailing garbage after entry", line_no);
    if (entry.row < 1 || entry.row > size.rows || entry.col < 1 ||
        entry.col > size.cols)
        return Error(ErrorCode::ValidationError,
                     "index (" + std::to_string(entry.row) + ", " +
                         std::to_string(entry.col) + ") out of range for " +
                         std::to_string(size.rows) + "x" +
                         std::to_string(size.cols) + " matrix",
                     line_no);
    if (strict) {
        if (!std::isfinite(entry.value))
            return Error(ErrorCode::ValidationError,
                         "non-finite value on entry line", line_no);
        if (header.symmetric && entry.col > entry.row)
            return Error(ErrorCode::ValidationError,
                         "entry above the diagonal in a symmetric file",
                         line_no);
    }
    return entry;
}

/// Duplicate-detection key as used by the strict serial parser.
[[nodiscard]] inline std::int64_t entry_key(const MmEntry& entry,
                                            const MmSize& size) noexcept {
    return (entry.row - 1) * size.cols + (entry.col - 1);
}

}  // namespace spmvcache::mm_detail
