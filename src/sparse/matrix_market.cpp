#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/mm_detail.hpp"
#include "util/checked.hpp"
#include "util/fault.hpp"

namespace spmvcache {

namespace {

using mm_detail::MmHeader;
using mm_detail::MmSize;

/// Reads the stream in blocks into one fixed buffer and splits them with
/// the line cursor both parsers share. A line cut by the end of a block
/// moves to the front of the buffer before the next read; the cursor
/// rejects any line longer than max_line_bytes, so the max_line_bytes + 2
/// floor on the buffer always leaves room to read on.
class BlockLineReader {
public:
    BlockLineReader(std::istream& in, std::size_t max_line_bytes)
        : in_(in),
          buf_(std::max(kBlockBytes, max_line_bytes + 2)),
          cursor_({}, max_line_bytes, /*ends_input=*/false) {}

    /// true = a line is available via view(); false = clean end of input.
    [[nodiscard]] Result<bool> next() {
        for (;;) {
            SPMV_ASSIGN_OR_RETURN(const bool have_line, cursor_.next());
            if (have_line || at_end_) return have_line;
            refill();
        }
    }

    [[nodiscard]] std::string_view view() const noexcept {
        return cursor_.view();
    }
    [[nodiscard]] std::int64_t line_no() const noexcept {
        return cursor_.line_no();
    }

private:
    static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

    void refill() {
        const std::size_t tail = filled_ - cursor_.pos();
        std::memmove(buf_.data(), buf_.data() + cursor_.pos(), tail);
        in_.read(buf_.data() + tail,
                 static_cast<std::streamsize>(buf_.size() - tail));
        filled_ = tail + static_cast<std::size_t>(in_.gcount());
        // A short read sets failbit: the input ended or the stream
        // failed, and either way what was read is all there is.
        at_end_ = !in_;
        cursor_.rebase(std::string_view(buf_.data(), filled_), at_end_);
    }

    std::istream& in_;
    std::vector<char> buf_;
    mm_detail::BufLineCursor cursor_;
    std::size_t filled_ = 0;
    bool at_end_ = false;
};

[[nodiscard]] Result<AnyCsrMatrix> read_impl(std::istream& in,
                                             const MmReadOptions& options,
                                             IndexWidthChoice width) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.header"));
    BlockLineReader reader(in, options.max_line_bytes);

    SPMV_ASSIGN_OR_RETURN(bool have_banner, reader.next());
    if (!have_banner)
        return Error(ErrorCode::ParseError, "empty Matrix Market stream", 1);
    SPMV_ASSIGN_OR_RETURN(
        const MmHeader header,
        mm_detail::parse_banner(reader.view(), reader.line_no()));

    // Skip comments and blank lines to the size line.
    for (;;) {
        SPMV_ASSIGN_OR_RETURN(bool have_line, reader.next());
        if (!have_line)
            return Error(ErrorCode::ParseError, "missing size line",
                         reader.line_no() + 1);
        if (!mm_detail::is_comment_or_blank(reader.view())) break;
    }
    SPMV_ASSIGN_OR_RETURN(
        const MmSize size,
        mm_detail::parse_size_line(reader.view(), reader.line_no(), header,
                                   width));

    CooMatrix coo(size.rows, size.cols);
    // parse_size_line proved 2*nnz fits; the contract keeps that proof
    // attached to the arithmetic it guards.
    std::int64_t logical_nnz = size.nnz;
    if (header.symmetric)
        SPMV_EXPECT(checked_mul<std::int64_t>(2, size.nnz, logical_nnz));
    // Cap the up-front reservation: a lying size line must not be able to
    // trigger a huge allocation before the truncation check catches it.
    coo.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(logical_nnz, std::int64_t{1} << 24)));

    std::unordered_set<std::int64_t> seen_keys;
    if (options.strict)
        seen_keys.reserve(static_cast<std::size_t>(
            std::min<std::int64_t>(size.nnz, std::int64_t{1} << 24)));

    std::int64_t seen = 0;
    while (seen < size.nnz) {
        SPMV_ASSIGN_OR_RETURN(bool have_line, reader.next());
        if (!have_line) break;
        const std::string_view line = reader.view();
        if (mm_detail::is_comment_or_blank(line)) continue;
        const std::int64_t line_no = reader.line_no();
        if (Status s = fault::maybe_fail("mm.read_entry"); !s.ok())
            return std::move(s).wrap("entry " + std::to_string(seen + 1));

        SPMV_ASSIGN_OR_RETURN(
            const mm_detail::MmEntry entry,
            mm_detail::parse_entry_line(line, line_no, header, size,
                                        options.strict));
        if (options.strict &&
            !seen_keys.insert(mm_detail::entry_key(entry, size)).second)
            return Error(ErrorCode::ValidationError,
                         "duplicate entry (" + std::to_string(entry.row) +
                             ", " + std::to_string(entry.col) + ")",
                         line_no);
        coo.add(entry.row - 1, entry.col - 1, entry.value);
        if (header.symmetric && entry.row != entry.col)
            coo.add(entry.col - 1, entry.row - 1,
                    header.skew ? -entry.value : entry.value);
        ++seen;
    }
    if (seen != size.nnz)
        return Error(ErrorCode::ParseError,
                     "truncated: size line declares " +
                         std::to_string(size.nnz) + " entries, found " +
                         std::to_string(seen),
                     std::max<std::int64_t>(reader.line_no(), 1));
    if (options.strict) {
        // Anything but comments and blanks after the final entry means the
        // size line undercounts — reject rather than silently drop data.
        for (;;) {
            SPMV_ASSIGN_OR_RETURN(bool have_line, reader.next());
            if (!have_line) break;
            if (!mm_detail::is_comment_or_blank(reader.view()))
                return Error(ErrorCode::ParseError,
                             "data after the declared final entry",
                             reader.line_no());
        }
    }
    return std::move(coo).to_csr_any(width);
}

/// Unwraps a forced-W32 parse into the narrow matrix the legacy entry
/// points return.
[[nodiscard]] Result<CsrMatrix> narrow_result(Result<AnyCsrMatrix> any) {
    if (!any.ok()) return std::move(any).to_error();
    AnyCsrMatrix m = std::move(any).value();
    SPMV_EXPECTS(m.as32() != nullptr);
    return std::move(m).take32();
}

}  // namespace

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market(std::istream& in,
                                         const MmReadOptions& options) {
    return narrow_result(
        std::move(read_impl(in, options, IndexWidthChoice::W32))
            .wrap("reading Matrix Market stream"));
}

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_file(const std::string& path,
                                              const MmReadOptions& options) {
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap("reading '" + path + "'");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError, "cannot open '" + path + "'");
    return narrow_result(std::move(read_impl(in, options, IndexWidthChoice::W32))
                             .wrap("reading '" + path + "'"));
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::istream& in, const MmReadOptions& options) {
    return std::move(read_impl(in, options, options.index_width))
        .wrap("reading Matrix Market stream");
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options) {
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap("reading '" + path + "'");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError, "cannot open '" + path + "'");
    return std::move(read_impl(in, options, options.index_width))
        .wrap("reading '" + path + "'");
}

CsrMatrix read_matrix_market(std::istream& in) {
    Result<CsrMatrix> r = try_read_matrix_market(in);
    if (!r.ok()) throw_status(std::move(r).to_error());
    return std::move(r).value();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
    Result<CsrMatrix> r = try_read_matrix_market_file(path);
    if (!r.ok()) throw_status(std::move(r).to_error());
    return std::move(r).value();
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
