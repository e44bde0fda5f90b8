#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sparse/coo.hpp"
#include "sync/thread_pool.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/format.hpp"

namespace spmvcache {

namespace {

// ---- Grammar -------------------------------------------------------------

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

/// Splits an in-memory byte range into lines, the reader's one line rule:
/// '\n' ends a line (a '\r' before it stays in the line and counts towards
/// its length), a trailing fragment without '\n' is a line once the range
/// reaches the end of the input, and a line longer than max_line_bytes is
/// a ParseError attributed to that (not yet counted) line. Line numbers
/// are 1-based and carry across rebase(), so the header can be read one
/// buffer after another.
class BufLineCursor {
public:
    /// `ends_input`: `text` runs to the end of the input.
    BufLineCursor(std::string_view text, std::size_t max_line_bytes,
                  bool ends_input)
        : text_(text),
          max_line_bytes_(max_line_bytes),
          ends_input_(ends_input) {}

    /// true = a line is available via view(); false = no line: the range
    /// is used up, or the next line is too long (status() says which). At
    /// the end of a range that does not end the input, pos() marks the
    /// start of an unfinished line the next range must begin with.
    [[nodiscard]] bool next() noexcept {
        if (pos_ >= text_.size()) return false;
        const char* begin = text_.data() + pos_;
        const std::size_t rest = text_.size() - pos_;
        const char* nl =
            static_cast<const char*>(std::memchr(begin, '\n', rest));
        const std::size_t len =
            nl != nullptr ? static_cast<std::size_t>(nl - begin) : rest;
        if (len > max_line_bytes_) {
            overlong_ = true;
            return false;
        }
        if (nl == nullptr && !ends_input_) return false;
        ++line_no_;
        view_ = std::string_view(begin, len);
        pos_ += len + (nl != nullptr ? 1 : 0);
        return true;
    }

    /// Why next() returned false: a ParseError at the next line when that
    /// line is too long, OK when the range is used up.
    [[nodiscard]] Status status() const {
        if (!overlong_) return OkStatus();
        return Error(ErrorCode::ParseError,
                     "line exceeds maximum length of " +
                         std::to_string(max_line_bytes_) + " bytes",
                     line_no_ + 1);
    }

    /// Continues on `text`, the next range of the input; the caller has
    /// moved the unfinished line (pos() onwards) to its front.
    void rebase(std::string_view text, bool ends_input) noexcept {
        text_ = text;
        ends_input_ = ends_input;
        pos_ = 0;
    }

    /// Counts the next line, `bytes` long with its '\n', as read: the
    /// caller read it in place from rest(), within max_line_bytes.
    void skip_line(std::size_t bytes) noexcept {
        ++line_no_;
        pos_ += bytes;
    }

    [[nodiscard]] std::string_view view() const noexcept { return view_; }
    /// The unread text: the next line onwards.
    [[nodiscard]] std::string_view rest() const noexcept {
        return text_.substr(pos_);
    }
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
    bool overlong_ = false;
};

// The scan's helpers are marked inline: out of line, GCC passes the cursor
// through memory on every field of every line.
inline const char* skip_ws(const char* p, const char* end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    return p;
}

bool rest_is_blank(const char* p, const char* end) {
    return skip_ws(p, end) == end;
}

bool parse_i64(const char*& p, const char* end, std::int64_t& out) {
    p = skip_ws(p, end);
    if (p < end && *p == '+') ++p;  // from_chars rejects a leading '+'
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || ptr == p) return false;
    p = ptr;
    return true;
}

bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

static_assert(std::endian::native == std::endian::little,
              "read_index8 reads the first byte of a word as its lowest");

/// Reads an unsigned index of 1 to 8 digits at `p` from one 8-byte load,
/// which never reaches `end`. false, `p` unmoved, for anything else: a
/// sign, no digit, a ninth digit, or fewer than 8 bytes before `end`.
inline bool read_index8(const char*& p, const char* end, std::int64_t& out) {
    if (end - p < 8) return false;
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    // A byte is a digit when its high nibble is 3, and still is once 6 is
    // added; a carry out of a byte above '9' only reaches bytes after it.
    constexpr std::uint64_t kHigh = 0xF0F0F0F0F0F0F0F0ULL;
    constexpr std::uint64_t kThrees = 0x3030303030303030ULL;
    const std::uint64_t other =
        ((word & kHigh) ^ kThrees) |
        (((word + 0x0606060606060606ULL) & kHigh) ^ kThrees);
    const int n = std::countr_zero(other) / 8;  // 8 when all are digits
    if (n == 0 || (n == 8 && (end - p == 8 || is_digit(p[8])))) return false;
    // Shift the n digits to the top, zeros before them, and combine
    // neighbouring digits, then pairs, then quads.
    std::uint64_t v = (word & 0x0F0F0F0F0F0F0F0FULL) << (8 * (8 - n));
    v = (v * 2561) >> 8;
    v = ((v & 0x00FF00FF00FF00FFULL) * 6553601) >> 16;
    v = ((v & 0x0000FFFF0000FFFFULL) * 42949672960001ULL) >> 32;
    out = static_cast<std::int64_t>(v);
    p += n;
    return true;
}

/// 10^0 to 10^15: powers of ten a double holds exactly.
constexpr double kExactPow10[] = {1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                                  1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

/// Reads a decimal of at most 15 digits with no exponent, such as "-1",
/// "1.92469" or ".5", by Clinger's exact path: its digits are an exact
/// double and so is the power of ten, so the one division rounds as
/// from_chars does. false, `p` unmoved, for any other text. The digits are
/// counted before any is combined, so a longer value costs one scan.
inline bool parse_short_decimal(const char*& p, const char* end, double& out) {
    const char* q = p;
    const bool negative = q < end && *q == '-';
    if (negative) ++q;
    const char* whole = q;
    while (q < end && is_digit(*q)) ++q;
    const char* whole_end = q;
    const char* part = q;
    if (q < end && *q == '.') {
        part = ++q;
        while (q < end && is_digit(*q)) ++q;
    }
    const std::ptrdiff_t fraction = q - part;
    const std::ptrdiff_t n = (whole_end - whole) + fraction;
    if (n == 0 || n > 15 || (q < end && (*q == 'e' || *q == 'E')))
        return false;
    std::uint64_t digits = 0;
    for (const char* c = whole; c < whole_end; ++c)
        digits = digits * 10 + static_cast<std::uint64_t>(*c - '0');
    for (const char* c = part; c < q; ++c)
        digits = digits * 10 + static_cast<std::uint64_t>(*c - '0');
    const double magnitude =
        static_cast<double>(digits) / kExactPow10[fraction];
    out = negative ? -magnitude : magnitude;
    p = q;
    return true;
}

/// Reads a value after blanks, as from_chars would after one optional
/// '+'. A value has one sign: false for a '-' right after the '+'.
inline bool parse_f64(const char*& p, const char* end, double& out) {
    p = skip_ws(p, end);
    if (p < end && *p == '+') {
        ++p;
        if (p < end && *p == '-') return false;
    }
    if (parse_short_decimal(p, end, out)) return true;
    const auto [ptr, ec] = std::from_chars(p, end, out);
    if (ec != std::errc{} || ptr == p) return false;
    p = ptr;
    return true;
}

bool is_comment_or_blank(std::string_view line) {
    const char* p = skip_ws(line.data(), line.data() + line.size());
    return p == line.data() + line.size() || *p == '%';
}

[[nodiscard]] Result<MmHeader> parse_banner(std::string_view line,
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

[[nodiscard]] Result<MmSize> parse_size_line(std::string_view line,
                                             std::int64_t line_no,
                                             const MmHeader& header,
                                             IndexWidthChoice width) {
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
    std::int64_t logical = size.nnz;
    if (header.symmetric &&
        !checked_mul<std::int64_t>(size.nnz, 2, logical))
        return Error(ErrorCode::OverflowError,
                     "symmetric nnz expansion overflows int64", line_no);
    // Every byte count of the shape must be addressable, at every index
    // width: the wide layout bounds both, as a shape within the W32
    // bounds is far below int64.
    Result<std::int64_t> bytes = checked_working_set_bytes(
        size.rows, size.cols, logical, IndexWidth::W64);
    if (!bytes.ok()) {
        Error e = std::move(bytes).to_error();
        e.line = line_no;
        return e;
    }
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
    return size;
}

/// What an entry line is read against.
struct Grammar {
    MmHeader header;
    MmSize size;
    bool strict = false;
    std::size_t max_line_bytes = 0;
};

/// What is wrong with an entry line.
enum class EntryFault : std::uint8_t {
    None,
    Malformed,
    NoValue,
    Trailing,
    OutOfRange,
    NonFinite,
    AboveDiagonal,
};

/// Parses and validates one non-comment entry line into `entry`: every
/// per-entry check except the cross-entry duplicate test, which the merge
/// owns. Builds no error; entry_error() does, for a line that fails.
[[nodiscard]] EntryFault read_entry(std::string_view line, const Grammar& g,
                                    MmEntry& entry) {
    const char* p = line.data();
    const char* end = line.data() + line.size();
    if (!parse_i64(p, end, entry.row) || !parse_i64(p, end, entry.col))
        return EntryFault::Malformed;
    if (!g.header.pattern && !parse_f64(p, end, entry.value))
        return EntryFault::NoValue;
    if (g.strict && !rest_is_blank(p, end)) return EntryFault::Trailing;
    if (entry.row < 1 || entry.row > g.size.rows || entry.col < 1 ||
        entry.col > g.size.cols)
        return EntryFault::OutOfRange;
    if (g.strict) {
        if (!std::isfinite(entry.value)) return EntryFault::NonFinite;
        if (g.header.symmetric && entry.col > entry.row)
            return EntryFault::AboveDiagonal;
    }
    return EntryFault::None;
}

/// The error for an entry line read_entry() refused with `fault`, after
/// reading `entry` as far as it got.
[[nodiscard]] Error entry_error(EntryFault fault, const MmEntry& entry,
                                const Grammar& g, std::int64_t line_no) {
    switch (fault) {
        case EntryFault::Malformed:
            return Error(ErrorCode::ParseError,
                         "malformed entry line (expected 'row col[ value]')",
                         line_no);
        case EntryFault::NoValue:
            return Error(ErrorCode::ParseError,
                         "missing or non-numeric value on entry line",
                         line_no);
        case EntryFault::Trailing:
            return Error(ErrorCode::ParseError,
                         "trailing garbage after entry", line_no);
        case EntryFault::OutOfRange:
            return Error(ErrorCode::ValidationError,
                         "index (" + std::to_string(entry.row) + ", " +
                             std::to_string(entry.col) +
                             ") out of range for " +
                             std::to_string(g.size.rows) + "x" +
                             std::to_string(g.size.cols) + " matrix",
                         line_no);
        case EntryFault::NonFinite:
            return Error(ErrorCode::ValidationError,
                         "non-finite value on entry line", line_no);
        case EntryFault::AboveDiagonal:
            return Error(ErrorCode::ValidationError,
                         "entry above the diagonal in a symmetric file",
                         line_no);
        case EntryFault::None:
            break;
    }
    return Error(ErrorCode::InternalError, "entry line has no fault", line_no);
}

/// Reads the entry line at the front of `text` in place when read_entry()
/// would take it as it stands: indices of 1 to 8 digits (read_index8), a
/// value that parse_f64 reads, then only blanks up to a '\n' within
/// max_line_bytes, and every check read_entry() makes in this mode
/// passed. Returns the bytes the line takes with its '\n', or 0 to leave
/// the line (and any error it holds) to the line cursor and read_entry().
[[nodiscard]] inline std::size_t accept_entry(std::string_view text,
                                              const Grammar& g,
                                              MmEntry& entry) {
    const char* begin = text.data();
    const char* end = begin + text.size();
    const char* p = skip_ws(begin, end);
    if (!read_index8(p, end, entry.row)) return 0;
    p = skip_ws(p, end);
    if (!read_index8(p, end, entry.col)) return 0;
    if (!g.header.pattern && !parse_f64(p, end, entry.value)) return 0;
    p = skip_ws(p, end);
    const auto len = static_cast<std::size_t>(p - begin);
    if (p == end || *p != '\n' || len > g.max_line_bytes) return 0;
    if (entry.row < 1 || entry.row > g.size.rows || entry.col < 1 ||
        entry.col > g.size.cols)
        return 0;
    if (g.strict && (!std::isfinite(entry.value) ||
                     (g.header.symmetric && entry.col > entry.row)))
        return 0;
    return len + 1;
}

// ---- Pieces: one worker's share of a round -------------------------------

/// How the scan of a piece ended: the lines it counted, the bytes it
/// consumed (all but an unfinished last line), and the error that stopped
/// it, its line relative to the piece.
struct PieceEnd {
    std::int64_t lines = 0;
    std::size_t used = 0;
    std::optional<Error> error;
    /// The error is a malformed entry line (not the line rule or a fault).
    bool entry_line = false;
};

/// Scans one piece, handing each entry and its piece-relative line to
/// `on_entry` until it returns false. A line accept_entry() takes is read
/// in place; any other goes through the line cursor and read_entry(), the
/// one source of errors. Stops at the first error; the lines after it
/// stay uncounted, which is safe because an error either ends the read or
/// falls after the final entry of a lenient read.
template <class OnEntry>
PieceEnd scan_piece(std::string_view text, bool ends_input, const Grammar& g,
                    OnEntry&& on_entry) {
    PieceEnd end;
    if (Status s = fault::maybe_fail("mm.parallel"); !s.ok()) {
        end.error = std::move(s).to_error();
        end.error->line = 1;
        return end;
    }
    BufLineCursor cursor(text, g.max_line_bytes, ends_input);
    for (;;) {
        MmEntry entry;
        if (const std::size_t bytes = accept_entry(cursor.rest(), g, entry)) {
            cursor.skip_line(bytes);
        } else {
            if (!cursor.next()) {
                if (Status s = cursor.status(); !s.ok())
                    end.error = std::move(s).to_error();
                break;
            }
            if (is_comment_or_blank(cursor.view())) continue;
            entry = MmEntry{};
            if (const EntryFault fault = read_entry(cursor.view(), g, entry);
                fault != EntryFault::None) {
                end.error = entry_error(fault, entry, g, cursor.line_no());
                end.entry_line = true;
                break;
            }
        }
        if (!on_entry(entry, cursor.line_no())) break;
    }
    end.lines = cursor.line_no();
    end.used = cursor.pos();
    return end;
}

/// Cuts `text` into at most `n` pieces of about equal size. Each piece but
/// the last ends just past a '\n', so no line straddles two pieces.
void cut_pieces(std::string_view text, std::size_t n,
                std::vector<std::string_view>& pieces) {
    pieces.clear();
    std::size_t begin = 0;
    for (std::size_t i = 1; i < n; ++i) {
        const std::size_t nominal = text.size() / n * i;
        if (nominal <= begin) continue;
        const char* nl = static_cast<const char*>(
            std::memchr(text.data() + nominal - 1, '\n',
                        text.size() - nominal + 1));
        if (nl == nullptr) break;
        const auto end = static_cast<std::size_t>(nl - text.data()) + 1;
        pieces.push_back(text.substr(begin, end - begin));
        begin = end;
    }
    pieces.push_back(text.substr(begin));
}

/// A piece's entries, their piece-relative lines (kept in strict mode
/// only: just strict mode can reject an entry, and so needs its line), and
/// how the piece ended.
struct PieceResult {
    std::vector<MmEntry> entries;
    std::vector<std::int64_t> lines;
    PieceEnd end;
};

// ---- The merge -----------------------------------------------------------

/// Every entry passes through here in file order, whichever worker parsed
/// it: the strict duplicate key, the symmetric/skew mirror, the stop at
/// the declared count and the "data after the declared final entry" rule.
/// The first rejection is held until finish().
class EntryMerge {
public:
    /// `width`: the CSR width the read resolves (MmReadOptions).
    EntryMerge(const Grammar& g, IndexWidthChoice width)
        : g_(g), coo_(g.size.rows, g.size.cols, width) {
        // parse_size_line proved 2*nnz fits; the contract keeps that
        // proof attached to the arithmetic it guards.
        if (g.header.symmetric)
            SPMV_EXPECTS(
                checked_mul<std::int64_t>(2, g.size.nnz, logical_nnz_));
        // Cap the up-front reservation: a lying size line must not be
        // able to trigger a huge allocation before the truncation check
        // catches it.
        reserved_ =
            std::min<std::int64_t>(logical_nnz_, std::int64_t{1} << 24);
        coo_.reserve(static_cast<std::size_t>(reserved_));
        if (g.strict)
            seen_keys_.reserve(static_cast<std::size_t>(
                std::min<std::int64_t>(g.size.nnz, std::int64_t{1} << 24)));
    }

    /// The read can stop: the input was rejected, or lenient mode has
    /// every declared entry and never reads the rest.
    [[nodiscard]] bool stopped() const noexcept {
        return error_.has_value() || (!g_.strict && seen_ == g_.size.nnz);
    }

    /// Takes the next entry, `line` absolute (only strict mode reads it).
    /// false = stopped().
    [[nodiscard]] bool add(const MmEntry& entry, std::int64_t line) {
        if (seen_ == g_.size.nnz) return reject(data_after(line));
        if (fault::any_armed()) {
            if (Status s = read_entry_fault(); !s.ok())
                return reject(std::move(s).to_error());
        }
        if (g_.strict &&
            !seen_keys_
                 .insert((entry.row - 1) * g_.size.cols + (entry.col - 1))
                 .second)
            return reject(Error(ErrorCode::ValidationError,
                                "duplicate entry (" +
                                    std::to_string(entry.row) + ", " +
                                    std::to_string(entry.col) + ")",
                                line));
        // Past the capped reservation the arrays double, but never past
        // the declared count: a truthful size line then fills them
        // exactly, and an in-order read hands them to the CSR with no
        // spare capacity.
        if ((g_.header.symmetric ? 2 : 1) * (seen_ + 1) > reserved_) {
            reserved_ += std::min(reserved_, logical_nnz_ - reserved_);
            coo_.reserve(static_cast<std::size_t>(reserved_));
        }
        coo_.add(entry.row - 1, entry.col - 1, entry.value);
        if (g_.header.symmetric && entry.row != entry.col)
            coo_.add(entry.col - 1, entry.row - 1,
                     g_.header.skew ? -entry.value : entry.value);
        ++seen_;
        return !stopped();
    }

    /// A piece stopped at `error` (line absolute) after the entries add()
    /// took. Ignored once lenient mode has every entry.
    void stop(Error error, bool entry_line) {
        if (seen_ == g_.size.nnz) {
            if (g_.strict)
                reject(entry_line ? data_after(error.line) : std::move(error));
            return;
        }
        // A malformed entry line is still an entry read.
        Status fault = entry_line ? read_entry_fault() : OkStatus();
        reject(fault.ok() ? std::move(error) : std::move(fault).to_error());
    }

    /// The entries, once the read stopped or the input ended after
    /// `lines` lines; or the first rejection.
    [[nodiscard]] Result<CooMatrix> finish(std::int64_t lines) && {
        if (error_) return *std::move(error_);
        if (seen_ != g_.size.nnz)
            return Error(ErrorCode::ParseError,
                         "truncated: size line declares " +
                             std::to_string(g_.size.nnz) + " entries, found " +
                             std::to_string(seen_),
                         std::max<std::int64_t>(lines, 1));
        return std::move(coo_);
    }

private:
    bool reject(Error error) {
        error_ = std::move(error);
        return false;
    }

    [[nodiscard]] Status read_entry_fault() const {
        if (Status s = fault::maybe_fail("mm.read_entry"); !s.ok())
            return std::move(s).wrap("entry " + std::to_string(seen_ + 1));
        return OkStatus();
    }

    /// Strict mode: the size line undercounts. Reject rather than
    /// silently drop data.
    [[nodiscard]] static Error data_after(std::int64_t line) {
        return Error(ErrorCode::ParseError,
                     "data after the declared final entry", line);
    }

    Grammar g_;
    CooMatrix coo_;
    /// Entries the file can hold (a symmetric file's mirrors counted), and
    /// the entries coo_ has room for.
    std::int64_t logical_nnz_ = g_.size.nnz;
    std::int64_t reserved_ = 0;
    std::unordered_set<std::int64_t> seen_keys_;
    std::int64_t seen_ = 0;
    std::optional<Error> error_;
};

// ---- The stream ----------------------------------------------------------

/// One buffer over the stream. refill() moves the unparsed tail to the
/// front — a line cut by the end of the last read, or what the header
/// left of the first — and tops the buffer up to one round, reading at
/// least a block once the tail alone fills a round, so a long line always
/// makes progress. The buffer never holds more than a round plus one
/// line plus a block.
class BlockReader {
public:
    BlockReader(std::istream& in, std::size_t round_bytes,
                std::size_t block_bytes)
        : in_(in), round_bytes_(round_bytes), block_bytes_(block_bytes) {}

    /// Keeps text() from `keep_from` on and reads more after it. false =
    /// the stream failed (badbit): text() holds only what came before.
    [[nodiscard]] bool refill(std::size_t keep_from) {
        const std::size_t tail = filled_ - keep_from;
        if (tail > 0)
            std::memmove(buf_.data(), buf_.data() + keep_from, tail);
        const std::size_t want =
            tail < round_bytes_ ? round_bytes_ : tail + block_bytes_;
        if (buf_.size() < want) buf_.resize(want);
        in_.read(buf_.data() + tail,
                 static_cast<std::streamsize>(buf_.size() - tail));
        filled_ = tail + static_cast<std::size_t>(in_.gcount());
        if (in_.bad()) return false;
        // A short read sets failbit: the input ended.
        at_end_ = !in_;
        return true;
    }

    [[nodiscard]] std::string_view text() const noexcept {
        return {buf_.data(), filled_};
    }
    [[nodiscard]] bool at_end() const noexcept { return at_end_; }

private:
    std::istream& in_;
    std::size_t round_bytes_;
    std::size_t block_bytes_;
    std::vector<char> buf_;
    std::size_t filled_ = 0;
    bool at_end_ = false;
};

[[nodiscard]] Error read_failed(std::int64_t line) {
    return Error(ErrorCode::ResourceError, "stream read failed", line);
}

/// Hands the merge the error a piece stopped at, after its entries, and
/// counts the piece's lines. Returns the bytes the piece consumed.
std::size_t end_piece(const PieceEnd& end, EntryMerge& merge,
                      std::int64_t& line_base) {
    if (end.error && !merge.stopped()) {
        Error error = *end.error;
        error.line += line_base;
        merge.stop(std::move(error), end.entry_line);
    }
    line_base += end.lines;
    return end.used;
}

/// One job: each round is scanned inline, its entries going straight into
/// the merge. `from` is where the unparsed text of the first round starts.
/// Returns the read failure, if any.
[[nodiscard]] Status read_rounds_inline(BlockReader& reader, std::size_t from,
                                        const Grammar& g, EntryMerge& merge,
                                        std::int64_t& line_base) {
    for (;;) {
        from += end_piece(
            scan_piece(reader.text().substr(from), reader.at_end(), g,
                       [&](const MmEntry& e, std::int64_t line) {
                           return merge.add(e, line_base + line);
                       }),
            merge, line_base);
        if (merge.stopped() || reader.at_end()) return OkStatus();
        if (!reader.refill(from)) return read_failed(line_base + 1);
        from = 0;
    }
}

/// Several jobs: the pool parses the pieces of a round into entry lists
/// while one more pool task merges the round before, so the serial merge
/// overlaps the parallel parse. A round is cut into four pieces per
/// worker, which keeps the workers the merge leaves free evenly busy.
/// Only the entry lists are double-buffered: the text buffer is refilled
/// once a round is parsed, since the lists hold copies.
class ParallelRounds {
public:
    ParallelRounds(const Grammar& g, std::size_t workers)
        : g_(g), pool_(workers) {
        for (std::vector<PieceResult>& round : rounds_)
            round.resize(4 * workers);
    }

    /// Same contract as read_rounds_inline.
    [[nodiscard]] Status run(BlockReader& reader, std::size_t from,
                             EntryMerge& merge, std::int64_t& line_base) {
        std::size_t parsed = cut(reader.text().substr(from), 0);
        bool last = reader.at_end();
        pool_.parallel_for(parsed, [&](std::size_t i) { scan(0, i, last); });
        for (std::size_t cur = 0;; cur ^= 1) {
            // Read on unless this round ends the input or stops the read.
            const std::optional<std::size_t> used = consumed(cur, parsed);
            bool more = false;
            bool read_ok = true;
            if (!last && used) {
                read_ok = reader.refill(from + *used);
                from = 0;
                more = read_ok;
            }
            const std::size_t merging = parsed;
            parsed = more ? cut(reader.text(), cur ^ 1) : 0;
            last = reader.at_end();
            pool_.parallel_for(parsed + 1, [&](std::size_t i) {
                if (i == 0) {
                    merge_round(cur, merging, merge, line_base);
                } else {
                    scan(cur ^ 1, i - 1, last);
                }
            });
            if (merge.stopped()) return OkStatus();
            if (!read_ok) return read_failed(line_base + 1);
            if (!more) return OkStatus();
        }
    }

private:
    /// Cuts the text of the next round, to be parsed into `round`, and
    /// returns its piece count. The entry lists get room for every entry
    /// their piece could hold here, on the calling thread, so the workers
    /// never grow them: their memory stays with this thread's allocations
    /// and is reused once the read ends.
    std::size_t cut(std::string_view text, std::size_t round) {
        cut_pieces(text, rounds_[round].size(), pieces_);
        // The shortest entry line is "1 1\n", or "1 1 1\n" with a value.
        const std::size_t min_line = g_.header.pattern ? 4 : 6;
        for (std::size_t i = 0; i < pieces_.size(); ++i) {
            const std::size_t most = (pieces_[i].size() + 1) / min_line;
            rounds_[round][i].entries.reserve(most);
            if (g_.strict) rounds_[round][i].lines.reserve(most);
        }
        return pieces_.size();
    }

    void scan(std::size_t round, std::size_t i, bool last) {
        PieceResult& r = rounds_[round][i];
        r.entries.clear();
        r.lines.clear();
        r.end = scan_piece(pieces_[i], last && i + 1 == pieces_.size(), g_,
                           [&r, this](const MmEntry& e, std::int64_t line) {
                               r.entries.push_back(e);
                               if (g_.strict) r.lines.push_back(line);
                               return true;
                           });
    }

    /// Bytes the round consumed, all but its unfinished last line; none
    /// when a piece stopped at an error, which stops the read.
    [[nodiscard]] std::optional<std::size_t> consumed(std::size_t round,
                                                      std::size_t n) const {
        std::size_t used = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (rounds_[round][i].end.error) return std::nullopt;
            used += rounds_[round][i].end.used;
        }
        return used;
    }

    void merge_round(std::size_t round, std::size_t n, EntryMerge& merge,
                     std::int64_t& line_base) const {
        for (std::size_t i = 0; i < n && !merge.stopped(); ++i) {
            const PieceResult& r = rounds_[round][i];
            for (std::size_t k = 0; k < r.entries.size(); ++k)
                if (!merge.add(r.entries[k],
                               g_.strict ? line_base + r.lines[k] : 0))
                    return;
            end_piece(r.end, merge, line_base);
        }
    }

    Grammar g_;
    std::vector<PieceResult> rounds_[2];
    std::vector<std::string_view> pieces_;
    ThreadPool pool_;  // last: joined before what its tasks use goes
};

/// The header, then rounds of entries until the input ends or the merge
/// stops.
[[nodiscard]] Result<CooMatrix> read_entries(std::istream& in,
                                             const MmReadOptions& options) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.header"));
    const std::size_t host = default_host_jobs();
    const std::size_t workers =
        std::min(options.jobs == 0 ? host : options.jobs, host);
    const std::size_t block = std::clamp<std::size_t>(
        options.block_bytes, 1,
        std::numeric_limits<std::size_t>::max() / workers);
    BlockReader reader(in, workers * block, block);

    BufLineCursor cursor({}, options.max_line_bytes, /*ends_input=*/false);
    const auto next_line = [&]() -> Result<bool> {
        for (;;) {
            if (cursor.next()) return true;
            SPMV_RETURN_IF_ERROR(cursor.status());
            if (reader.at_end()) return false;
            if (!reader.refill(cursor.pos()))
                return read_failed(cursor.line_no() + 1);
            cursor.rebase(reader.text(), reader.at_end());
        }
    };

    SPMV_ASSIGN_OR_RETURN(const bool have_banner, next_line());
    if (!have_banner)
        return Error(ErrorCode::ParseError, "empty Matrix Market stream", 1);
    Grammar g;
    SPMV_ASSIGN_OR_RETURN(g.header,
                          parse_banner(cursor.view(), cursor.line_no()));
    // Skip comments and blank lines to the size line.
    for (;;) {
        SPMV_ASSIGN_OR_RETURN(const bool have_line, next_line());
        if (!have_line)
            return Error(ErrorCode::ParseError, "missing size line",
                         cursor.line_no() + 1);
        if (!is_comment_or_blank(cursor.view())) break;
    }
    SPMV_ASSIGN_OR_RETURN(g.size,
                          parse_size_line(cursor.view(), cursor.line_no(),
                                          g.header, options.index_width));
    g.strict = options.strict;
    g.max_line_bytes = options.max_line_bytes;

    EntryMerge merge(g, options.index_width);
    std::int64_t line_base = cursor.line_no();
    if (!merge.stopped()) {
        SPMV_RETURN_IF_ERROR(
            workers == 1
                ? read_rounds_inline(reader, cursor.pos(), g, merge,
                                     line_base)
                : ParallelRounds(g, workers)
                      .run(reader, cursor.pos(), merge, line_base));
    }
    return std::move(merge).finish(line_base);
}

[[nodiscard]] Result<AnyCsrMatrix> read_impl(std::istream& in,
                                             const MmReadOptions& options) {
    // The round buffers are gone before the CSR arrays are built.
    SPMV_ASSIGN_OR_RETURN(CooMatrix coo, read_entries(in, options));
    return std::move(coo).to_csr_any();
}

/// The narrow matrix of a forced-W32 read, or the error, thrown.
[[nodiscard]] CsrMatrix narrow_or_throw(Result<AnyCsrMatrix> r) {
    if (!r.ok()) throw_status(std::move(r).to_error());
    return std::move(r).value().take32();
}

}  // namespace

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::istream& in, const MmReadOptions& options) {
    return std::move(read_impl(in, options))
        .wrap("reading Matrix Market stream");
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options) {
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap("reading '" + path + "'");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError, "cannot open '" + path + "'");
    return std::move(read_impl(in, options)).wrap("reading '" + path + "'");
}

CsrMatrix read_matrix_market(std::istream& in) {
    return narrow_or_throw(try_read_matrix_market_any(
        in, MmReadOptions{.index_width = IndexWidthChoice::W32}));
}

CsrMatrix read_matrix_market_file(const std::string& path) {
    return narrow_or_throw(try_read_matrix_market_any_file(
        path, MmReadOptions{.index_width = IndexWidthChoice::W32}));
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
    const auto rowptr = m.rowptr();
    const auto colidx = m.colidx();
    const auto values = m.values();
    for (std::int64_t r = 0; r < m.rows(); ++r) {
        for (auto i = rowptr[static_cast<std::size_t>(r)];
             i < rowptr[static_cast<std::size_t>(r) + 1]; ++i) {
            out << (r + 1) << ' '
                << (colidx[static_cast<std::size_t>(i)] + 1) << ' '
                << values[static_cast<std::size_t>(i)] << '\n';
        }
    }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& m) {
    std::ofstream out(path);
    if (!out)
        throw_status(Error(ErrorCode::ResourceError,
                           "cannot open '" + path + "' for writing"));
    write_matrix_market(out, m);
    out.flush();
    if (!out)
        throw_status(Error(ErrorCode::ResourceError,
                           "write failed for '" + path + "'"));
}

}  // namespace spmvcache
