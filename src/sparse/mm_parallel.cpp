#include "sparse/mm_parallel.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <unordered_set>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/mm_detail.hpp"
#include "sync/thread_pool.hpp"
#include "util/checked.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace spmvcache {

namespace {

using mm_detail::BufLineCursor;
using mm_detail::MmEntry;
using mm_detail::MmHeader;
using mm_detail::MmSize;

/// What one chunk worker hands to the merge: validated entries in file
/// order with their chunk-relative (1-based) line numbers, the chunk's
/// total line count, and the first error if parsing stopped early. Line
/// numbers are rebased to absolute during the merge via the prefix sum of
/// earlier chunks' line counts.
struct ChunkResult {
    std::vector<MmEntry> entries;
    std::vector<std::int64_t> entry_lines;
    std::int64_t lines = 0;
    std::optional<Error> error;  ///< .line is chunk-relative
};

/// Parses one chunk of the entry region. Stops at the first error; lines
/// after it stay uncounted, which is safe because an error either aborts
/// the whole parse (so later lines are never needed) or falls beyond the
/// declared final entry (where the merge needs only the error's own line).
ChunkResult parse_chunk(std::string_view chunk, const MmHeader& header,
                        const MmSize& size, const MmReadOptions& base) {
    ChunkResult out;
    if (Status s = fault::maybe_fail("mm.parallel"); !s.ok()) {
        Error e = std::move(s).to_error();
        e.line = 1;
        out.error = std::move(e);
        return out;
    }
    BufLineCursor cursor(chunk, base.max_line_bytes);
    // Rough guess: a minimal entry line ("1 1\n") is four bytes.
    out.entries.reserve(chunk.size() / 8 + 1);
    out.entry_lines.reserve(chunk.size() / 8 + 1);
    for (;;) {
        Result<bool> have_line = cursor.next();
        if (!have_line.ok()) {
            out.lines = cursor.line_no();
            out.error = std::move(have_line).to_error();
            return out;
        }
        if (!have_line.value()) break;
        if (mm_detail::is_comment_or_blank(cursor.view())) continue;
        Result<MmEntry> entry = mm_detail::parse_entry_line(
            cursor.view(), cursor.line_no(), header, size, base.strict);
        if (!entry.ok()) {
            out.lines = cursor.line_no();
            out.error = std::move(entry).to_error();
            return out;
        }
        out.entries.push_back(entry.value());
        out.entry_lines.push_back(cursor.line_no());
    }
    out.lines = cursor.line_no();
    return out;
}

/// Splits the tail of `text` from `begin` into at most `want` chunks whose
/// boundaries fall just past a '\n', so no line straddles two chunks.
std::vector<std::string_view> split_chunks(std::string_view text,
                                           std::size_t begin,
                                           std::size_t want) {
    std::vector<std::string_view> chunks;
    const std::size_t total = text.size() - begin;
    if (total == 0 || want == 0) return chunks;
    std::size_t pos = begin;
    for (std::size_t i = 0; i + 1 < want && pos < text.size(); ++i) {
        const std::size_t nominal_end = begin + (total * (i + 1)) / want;
        if (nominal_end <= pos) continue;
        // Extend to just past the next newline so no line is split.
        const char* nl = static_cast<const char*>(
            std::memchr(text.data() + nominal_end - 1, '\n',
                        text.size() - nominal_end + 1));
        if (nl == nullptr) break;  // rest is one unterminated line
        const std::size_t chunk_end =
            static_cast<std::size_t>(nl - text.data()) + 1;
        if (chunk_end <= pos) continue;
        chunks.push_back(text.substr(pos, chunk_end - pos));
        pos = chunk_end;
    }
    if (pos < text.size()) chunks.push_back(text.substr(pos));
    return chunks;
}

[[nodiscard]] Result<AnyCsrMatrix> parallel_impl(
    std::string_view text, const MmParallelOptions& options,
    IndexWidthChoice width) {
    SPMV_RETURN_IF_ERROR(fault::maybe_fail("mm.header"));
    BufLineCursor cursor(text, options.base.max_line_bytes);

    SPMV_ASSIGN_OR_RETURN(bool have_banner, cursor.next());
    if (!have_banner)
        return Error(ErrorCode::ParseError, "empty Matrix Market stream", 1);
    SPMV_ASSIGN_OR_RETURN(
        const MmHeader header,
        mm_detail::parse_banner(cursor.view(), cursor.line_no()));
    for (;;) {
        SPMV_ASSIGN_OR_RETURN(bool have_line, cursor.next());
        if (!have_line)
            return Error(ErrorCode::ParseError, "missing size line",
                         cursor.line_no() + 1);
        if (!mm_detail::is_comment_or_blank(cursor.view())) break;
    }
    SPMV_ASSIGN_OR_RETURN(
        const MmSize size,
        mm_detail::parse_size_line(cursor.view(), cursor.line_no(), header,
                                   width));

    const std::int64_t header_lines = cursor.line_no();
    const std::size_t entry_begin = cursor.pos();

    const std::size_t jobs = std::max<std::size_t>(
        options.jobs != 0 ? options.jobs : default_host_jobs(), 1);
    const std::size_t region = text.size() - entry_begin;
    const std::size_t per_chunk =
        std::max<std::size_t>(options.min_chunk_bytes, 1);
    std::size_t want = region / per_chunk + (region % per_chunk != 0 ? 1 : 0);
    want = std::clamp<std::size_t>(want, 1, 4 * jobs);

    const std::vector<std::string_view> chunks =
        split_chunks(text, entry_begin, want);
    std::vector<ChunkResult> results(chunks.size());
    if (chunks.size() <= 1 || jobs <= 1) {
        for (std::size_t i = 0; i < chunks.size(); ++i)
            results[i] = parse_chunk(chunks[i], header, size, options.base);
    } else {
        ThreadPool pool(std::min(jobs, chunks.size()));
        pool.parallel_for(chunks.size(), [&](std::size_t i) {
            results[i] = parse_chunk(chunks[i], header, size, options.base);
        });
    }

    // Deterministic merge in file order. The absolute line of
    // chunk-relative line r in chunk k is header_lines + sum of the line
    // counts of chunks 0..k-1 + r, so errors and duplicates report exactly
    // the serial reader's line numbers.
    CooMatrix coo(size.rows, size.cols);
    std::int64_t logical_nnz = size.nnz;
    if (header.symmetric)
        SPMV_EXPECT(checked_mul<std::int64_t>(2, size.nnz, logical_nnz));
    coo.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(logical_nnz, std::int64_t{1} << 24)));

    std::unordered_set<std::int64_t> seen_keys;
    if (options.base.strict)
        seen_keys.reserve(static_cast<std::size_t>(
            std::min<std::int64_t>(size.nnz, std::int64_t{1} << 24)));

    std::int64_t seen = 0;
    std::int64_t line_base = header_lines;
    bool done = false;  // lenient mode: all nnz entries collected
    for (const ChunkResult& chunk : results) {
        for (std::size_t i = 0; i < chunk.entries.size(); ++i) {
            const MmEntry& entry = chunk.entries[i];
            const std::int64_t abs_line = line_base + chunk.entry_lines[i];
            if (seen == size.nnz) {
                // The serial reader stops consuming entries here: lenient
                // mode ignores the rest of the input, strict mode rejects
                // the first non-comment line after the declared final
                // entry.
                if (options.base.strict)
                    return Error(ErrorCode::ParseError,
                                 "data after the declared final entry",
                                 abs_line);
                done = true;
                break;
            }
            if (options.base.strict &&
                !seen_keys.insert(mm_detail::entry_key(entry, size)).second)
                return Error(ErrorCode::ValidationError,
                             "duplicate entry (" + std::to_string(entry.row) +
                                 ", " + std::to_string(entry.col) + ")",
                             abs_line);
            coo.add(entry.row - 1, entry.col - 1, entry.value);
            if (header.symmetric && entry.row != entry.col)
                coo.add(entry.col - 1, entry.row - 1,
                        header.skew ? -entry.value : entry.value);
            ++seen;
        }
        if (done) break;
        if (chunk.error.has_value()) {
            const std::int64_t abs_line = line_base + chunk.error->line;
            if (seen == size.nnz) {
                // Past the final entry: the erroring line is data the size
                // line never declared. Lenient mode never reads this far.
                if (options.base.strict)
                    return Error(ErrorCode::ParseError,
                                 "data after the declared final entry",
                                 abs_line);
                done = true;
                break;
            }
            Error rebased = *chunk.error;
            rebased.line = abs_line;
            return rebased;
        }
        line_base += chunk.lines;
    }
    if (!done && seen != size.nnz)
        return Error(ErrorCode::ParseError,
                     "truncated: size line declares " +
                         std::to_string(size.nnz) + " entries, found " +
                         std::to_string(seen),
                     std::max<std::int64_t>(line_base, 1));
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

/// Slurps the whole file; the chunked scanner needs random access.
[[nodiscard]] Result<std::string> read_file_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::ResourceError, "cannot open '" + path + "'");
    std::string text;
    in.seekg(0, std::ios::end);
    const auto end_pos = in.tellg();
    if (end_pos > 0) {
        text.resize(static_cast<std::size_t>(end_pos));
        in.seekg(0, std::ios::beg);
        in.read(text.data(), end_pos);
    }
    if (in.bad())
        return Error(ErrorCode::ResourceError,
                     "read failed for '" + path + "'");
    return text;
}

}  // namespace

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_parallel(
    std::string_view text, const MmParallelOptions& options) {
    return narrow_result(
        std::move(parallel_impl(text, options, IndexWidthChoice::W32))
            .wrap("reading Matrix Market stream"));
}

[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_parallel_file(
    const std::string& path, const MmParallelOptions& options) {
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap("reading '" + path + "'");
    SPMV_ASSIGN_OR_RETURN(const std::string text, read_file_text(path));
    return narrow_result(
        std::move(parallel_impl(text, options, IndexWidthChoice::W32))
            .wrap("reading '" + path + "'"));
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_parallel_any(
    std::string_view text, const MmParallelOptions& options) {
    return std::move(parallel_impl(text, options, options.base.index_width))
        .wrap("reading Matrix Market stream");
}

[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_parallel_any_file(
    const std::string& path, const MmParallelOptions& options) {
    if (const Status s = fault::maybe_fail("mm.open"); !s.ok())
        return Status(s).wrap("reading '" + path + "'");
    SPMV_ASSIGN_OR_RETURN(const std::string text, read_file_text(path));
    return std::move(parallel_impl(text, options, options.base.index_width))
        .wrap("reading '" + path + "'");
}

}  // namespace spmvcache
