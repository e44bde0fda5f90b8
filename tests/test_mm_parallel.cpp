// Matrix Market reader tests. The reader parses rounds of blocks on a
// thread pool and merges them in file order, and its contract is that
// neither the job count nor the block size changes the outcome. Every
// case below is checked against a golden: the W32 CSR arrays' shape and
// FNV-1a digest, or the typed error's (code, line), as the earlier serial
// block reader produced them. Each golden must hold at every (jobs, block
// size) grid point, in strict and in lenient mode, so blocks cut lines,
// entry runs and over-long lines everywhere a boundary can fall. The suite
// is TSan-friendly (CI runs it under ThreadSanitizer): every grid point
// with more than one job fans out over the pool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

/// What the serial reader returned for one input: the shape and digest
/// of its W32 CSR arrays, or the code and line of its typed error.
struct Golden {
    ErrorCode code = ErrorCode::Ok;
    std::int64_t line = 0;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t nnz = 0;
    std::uint64_t digest = 0;

    bool operator==(const Golden&) const = default;
};

void PrintTo(const Golden& g, std::ostream* os) {
    *os << to_string(g.code) << " at line " << g.line << ", " << g.rows
        << "x" << g.cols << " nnz " << g.nnz << " digest " << std::hex
        << g.digest << std::dec;
}

constexpr Golden matrix(std::int64_t rows, std::int64_t cols,
                        std::int64_t nnz, std::uint64_t digest) {
    return {ErrorCode::Ok, 0, rows, cols, nnz, digest};
}

constexpr Golden error(ErrorCode code, std::int64_t line) {
    return {code, line, 0, 0, 0, 0};
}

/// FNV-1a over the bytes of rowptr, colidx and values, in that order.
std::uint64_t digest(const CsrMatrix& m) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void* data, std::uint64_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::uint64_t i = 0; i < bytes; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(m.rowptr().data(), m.rowptr_bytes());
    mix(m.colidx().data(), m.colidx_bytes());
    mix(m.values().data(), m.values_bytes());
    return h;
}

Golden observe(const Result<AnyCsrMatrix>& r) {
    if (!r.ok()) return error(r.error().code, r.error().line);
    const CsrMatrix* m = r.value().as32();
    if (m == nullptr) return error(ErrorCode::InternalError, 0);
    return matrix(m->rows(), m->cols(), m->nnz(), digest(*m));
}

Result<AnyCsrMatrix> parse(const std::string& text,
                           MmReadOptions options = {}) {
    options.index_width = IndexWidthChoice::W32;
    std::istringstream in(text);
    return try_read_matrix_market_any(in, options);
}

/// Block sizes for inputs up to ~100 KB: the default, and two that cut
/// nearly every line and entry run.
const std::vector<std::size_t> kSmallBlocks = {std::size_t{1} << 20, 61, 7};
/// Block sizes for inputs of a few MiB, where a 7-byte block would mean
/// hundreds of thousands of rounds.
const std::vector<std::size_t> kLargeBlocks = {std::size_t{1} << 20, 65536,
                                               4099};
/// 0 = all host cores.
const std::vector<std::size_t> kJobs = {1, 2, 3, 4, 8, 0};

/// Checks `text` at every (jobs, block) grid point in both modes: lenient
/// mode must give `lenient` and strict mode `strict`.
void expect_golden(const std::string& text, const Golden& lenient,
                   const Golden& strict, MmReadOptions base = {},
                   const std::vector<std::size_t>& blocks = kSmallBlocks) {
    for (const bool strict_mode : {false, true}) {
        base.strict = strict_mode;
        for (const std::size_t jobs : kJobs) {
            for (const std::size_t block : blocks) {
                MmReadOptions options = base;
                options.jobs = jobs;
                options.block_bytes = block;
                SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                             " block=" + std::to_string(block) +
                             " strict=" + std::to_string(strict_mode));
                EXPECT_EQ(strict_mode ? strict : lenient,
                          observe(parse(text, options)));
            }
        }
    }
}

/// Same input with "\r\n" line ends; '\r' is whitespace to the grammar,
/// so only the line-length rule can tell the two apart.
std::string crlf(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '\n') out += '\r';
        out += c;
    }
    return out;
}

/// Checks a small input and its CRLF twin.
void expect_small(const std::string& text, const Golden& lenient,
                  const Golden& strict) {
    expect_golden(text, lenient, strict);
    expect_golden(crlf(text), lenient, strict);
}

/// Same, for an input both modes read alike.
void expect_small(const std::string& text, const Golden& golden) {
    expect_small(text, golden, golden);
}

/// A coordinate file of `kind` ("real general", ...) whose lines after
/// the banner are `lines`, each ended by '\n'.
std::string mtx(const std::string& kind,
                std::initializer_list<const char*> lines) {
    std::string text = "%%MatrixMarket matrix coordinate " + kind + "\n";
    for (const char* line : lines) text.append(line).push_back('\n');
    return text;
}

std::string to_mtx(const CsrMatrix& m) {
    std::ostringstream out;
    write_matrix_market(out, m);
    return out.str();
}

/// A file under the test temp directory, unique to this process.
std::string temp_path(const std::string& name) {
    return (fs::path(testing::TempDir()) /
            (std::to_string(::getpid()) + "_" + name))
        .string();
}

TEST(MmParallel, GeneratedMatricesAreBitIdentical) {
    expect_small(to_mtx(gen::stencil_2d_5pt(16, 16)),
                 matrix(256, 256, 1216, 0x9a404a9dc1ecb977ULL));
    expect_small(to_mtx(gen::banded(120, 7, 2, 3)),
                 matrix(120, 120, 594, 0x5253d58db13613d6ULL));
    expect_small(to_mtx(gen::random_uniform(90, 90, 8, 17)),
                 matrix(90, 90, 720, 0x7988bc557d1abca2ULL));
    expect_small(to_mtx(gen::random_variable_rows(80, 80, 5.0, 2.0, 9)),
                 matrix(80, 80, 520, 0xa3423051fa454403ULL));
}

TEST(MmParallel, HandlesCommentsBlankLinesAndPattern) {
    expect_small(mtx("pattern general",
                     {"% comment between header and size", "", "3 3 4",
                      "% comment between entries", "1 1", "2 2", "", "3 1",
                      "3 3"}),
                 matrix(3, 3, 4, 0x7d87cf9da5978681ULL));
}

TEST(MmParallel, HandlesSymmetricAndSkewMirroring) {
    expect_small(mtx("real symmetric",
                     {"3 3 4", "1 1 1.5", "2 1 -2.0", "3 2 0.25", "3 3 4.0"}),
                 matrix(3, 3, 6, 0x5557c329326d9d20ULL));
    expect_small(mtx("real skew-symmetric", {"3 3 2", "2 1 -2.0", "3 2 0.25"}),
                 matrix(3, 3, 4, 0xc93ad8cbb3934e81ULL));
    // An upper-triangle entry: lenient mode mirrors it, strict rejects it.
    expect_small(mtx("pattern symmetric", {"3 3 3", "1 1", "1 3", "3 2"}),
                 matrix(3, 3, 5, 0x9d63f3c64a1e892dULL),
                 error(ErrorCode::ValidationError, 4));
}

TEST(MmParallel, HandlesIntegerFieldAndExponents) {
    expect_small(mtx("integer general", {"2 3 3", "1 1 7", "1 3 -2", "2 2 9"}),
                 matrix(2, 3, 3, 0xd05ef3a88631cca9ULL));
    expect_small(mtx("real general",
                     {"2 2 3", "1 1 1.25e-3", "1 2 -7.5E+2", "2 2 +0.5"}),
                 matrix(2, 2, 3, 0xecba5b6d6b9858ccULL));
}

TEST(MmParallel, LenientDuplicatesSumIdentically) {
    expect_small(mtx("real general",
                     {"2 2 4", "1 1 1.0", "1 1 2.0", "2 2 4.0", "2 1 8.0"}),
                 matrix(2, 2, 3, 0xa861f79c5017f9feULL),
                 error(ErrorCode::ValidationError, 4));
}

// ---- Errors: the serial reader's code and line at every grid point -----

TEST(MmParallel, MalformedEntryReportsSerialLineNumber) {
    expect_small(mtx("real general",
                     {"3 3 4", "1 1 1.0", "2 2 2.0", "2 x 3.0", "3 3 4.0"}),
                 error(ErrorCode::ParseError, 5));
}

TEST(MmParallel, OutOfRangeIndexReportsSerialLineNumber) {
    expect_small(mtx("real general",
                     {"3 3 3", "1 1 1.0", "% a comment to shift line numbers",
                      "2 7 2.0", "3 3 3.0"}),
                 error(ErrorCode::ValidationError, 5));
}

TEST(MmParallel, TruncatedFileReportsSameError) {
    expect_small(mtx("real general", {"4 4 6", "1 1 1.0", "2 2 2.0"}),
                 error(ErrorCode::ParseError, 4));
}

TEST(MmParallel, MissingValueReportsSameError) {
    expect_small(mtx("real general", {"3 3 3", "1 1 1.0", "2 2", "3 3 3.0"}),
                 error(ErrorCode::ParseError, 4));
}

TEST(MmParallel, StrictRejectsWhatSerialStrictRejects) {
    const Golden two = matrix(2, 2, 2, 0x3151f49213968d96ULL);
    // Duplicate entry (strict sums are forbidden).
    expect_small(mtx("real general", {"2 2 3", "1 1 1.0", "1 1 2.0", "2 2 4.0"}),
                 matrix(2, 2, 2, 0x3435f4112d53926fULL),
                 error(ErrorCode::ValidationError, 4));
    // Data after the declared final entry; a malformed line is data too.
    expect_small(mtx("real general", {"2 2 2", "1 1 1.0", "2 2 2.0", "1 2 9.0"}),
                 two, error(ErrorCode::ParseError, 5));
    expect_small(mtx("real general",
                     {"2 2 2", "1 1 1.0", "2 2 2.0", "% fine", "", "junk"}),
                 two, error(ErrorCode::ParseError, 7));
    // Trailing garbage on an entry line.
    expect_small(mtx("real general", {"2 2 2", "1 1 1.0 junk", "2 2 2.0"}), two,
                 error(ErrorCode::ParseError, 3));
    // Above-diagonal entry in a symmetric file.
    expect_small(mtx("real symmetric", {"3 3 2", "1 2 1.0", "3 3 2.0"}),
                 matrix(3, 3, 3, 0xaf74d8e9cb9107e6ULL),
                 error(ErrorCode::ValidationError, 3));
    // Non-finite value.
    expect_small(mtx("real general", {"2 2 2", "1 1 nan", "2 2 2.0"}),
                 matrix(2, 2, 2, 0xeaaec566fce1fd1eULL),
                 error(ErrorCode::ValidationError, 3));
}

TEST(MmParallel, LenientIgnoresDataAfterFinalEntry) {
    expect_small(mtx("real general", {"2 2 2", "1 1 1.0", "2 2 2.0", "1 2 9.0"}),
                 matrix(2, 2, 2, 0x3151f49213968d96ULL),
                 error(ErrorCode::ParseError, 5));
    // Nothing after the final entry is read, not even a bad line; a
    // declared count of 0 reads no entry at all.
    expect_small(mtx("real general", {"2 2 0", "1 x"}),
                 matrix(2, 2, 0, 0x5467b0da1d106495ULL),
                 error(ErrorCode::ParseError, 3));
}

TEST(MmParallel, HeaderErrorsMatchSerial) {
    expect_small(mtx("complex general", {"1 1 1", "1 1 1.0 0.0"}),
                 error(ErrorCode::UnsupportedError, 1));
    expect_small("not a matrix market file\n", error(ErrorCode::ParseError, 1));
    expect_small(mtx("real general", {"2 -2 1", "1 1 1.0"}),
                 error(ErrorCode::ValidationError, 2));
    expect_small(mtx("real general", {"% only comments"}),
                 error(ErrorCode::ParseError, 3));
    expect_small("", error(ErrorCode::ParseError, 1));
}

TEST(MmParallel, FileWithoutTrailingNewlineParses) {
    std::string text = mtx("real general", {"2 2 2", "1 1 1.0", "2 2 2.0"});
    text.pop_back();
    expect_small(text, matrix(2, 2, 2, 0x3151f49213968d96ULL));
}

/// Golden of the 12 x 12 five-point stencil written by write_matrix_market.
constexpr Golden kStencil12 = matrix(144, 144, 672, 0xd2dd3457d1cc77d6ULL);

TEST(MmParallel, FileWrapperMatchesSerialWrapper) {
    const std::string path = temp_path("wrapper.mtx");
    write_matrix_market_file(path, gen::stencil_2d_5pt(12, 12));
    for (const std::size_t jobs : kJobs) {
        for (const std::size_t block : kSmallBlocks) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " block=" + std::to_string(block));
            MmReadOptions options;
            options.index_width = IndexWidthChoice::W32;
            options.jobs = jobs;
            options.block_bytes = block;
            EXPECT_EQ(kStencil12,
                      observe(try_read_matrix_market_any_file(path, options)));
            // Missing file: a ResourceError naming the path, no line.
            const Result<AnyCsrMatrix> missing =
                try_read_matrix_market_any_file(path + ".no", options);
            EXPECT_EQ(error(ErrorCode::ResourceError, 0), observe(missing));
            EXPECT_NE(missing.error().render().find(".no"), std::string::npos);
        }
    }
    EXPECT_EQ(digest(read_matrix_market_file(path)), kStencil12.digest);
    fs::remove(path);
}

TEST(MmParallel, ChunkFaultInjectionSurfacesTypedError) {
    // Every reader fault point fires at every job count.
    const std::string text = to_mtx(gen::stencil_2d_5pt(12, 12));
    const std::string path = temp_path("fault.mtx");
    std::ofstream(path, std::ios::binary) << text;
    for (const std::size_t jobs : kJobs) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        MmReadOptions options;
        options.jobs = jobs;
        options.block_bytes = 256;
        for (const char* point :
             {"mm.header", "mm.size_line", "mm.parallel", "mm.read_entry"}) {
            fault::ScopedFault f(point);
            EXPECT_EQ(parse(text, options).code(), ErrorCode::FaultInjected)
                << point;
        }
        {
            fault::ScopedFault f("mm.open");
            EXPECT_EQ(try_read_matrix_market_any_file(path, options).code(),
                      ErrorCode::FaultInjected);
        }
        {
            // The merge runs in file order, so the Nth entry is the Nth
            // entry whatever the job count.
            fault::ScopedFault f("mm.read_entry", {.fail_after = 99});
            const Result<AnyCsrMatrix> r = parse(text, options);
            ASSERT_FALSE(r.ok());
            EXPECT_NE(r.error().render().find("entry 100"), std::string::npos)
                << r.error().render();
        }
        fault::disarm_all();
        EXPECT_EQ(kStencil12, observe(parse(text, options)));
    }
    fs::remove(path);
}

TEST(MmParallel, OverlongLineMatchesSerial) {
    MmReadOptions base;
    base.max_line_bytes = 32;
    // The 46-byte banner is already over the limit.
    expect_golden(mtx("real general", {"2 2 2", "1 1 1.0"}) + "2 2 2.0" +
                      std::string(100, ' ') + "\n",
                  error(ErrorCode::ParseError, 1),
                  error(ErrorCode::ParseError, 1), base);

    // One line rule: an entry line of exactly max_line_bytes parses, one
    // byte more is a ParseError at that line, and a '\r' before the '\n'
    // counts towards the length.
    base.max_line_bytes = 48;
    const auto with_entry_of = [](std::size_t bytes) {
        std::string entry = "2 2 2.";
        entry.resize(bytes, '0');
        return mtx("real general", {"2 2 2", "1 1 1.0", entry.c_str()});
    };
    const Result<AnyCsrMatrix> accepted = parse(with_entry_of(48), base);
    ASSERT_TRUE(accepted.ok()) << accepted.error().render();
    EXPECT_EQ(accepted.value().as32()->values()[1], 2.0);
    const Golden two = matrix(2, 2, 2, 0x3151f49213968d96ULL);
    const Golden line4 = error(ErrorCode::ParseError, 4);
    expect_golden(with_entry_of(48), two, two, base);
    expect_golden(with_entry_of(49), line4, line4, base);
    expect_golden(crlf(with_entry_of(48)), line4, line4, base);
}

// ---- Large inputs: lines cut by every block boundary --------------------

constexpr std::size_t kShortLines = 4096;
constexpr std::size_t kBlock = std::size_t{1} << 20;

/// Offsets at which a one-job reader with 1 MiB blocks reads again: each
/// round tops the buffer up after the line cut by the previous one.
std::vector<std::size_t> refill_offsets(const std::string& text) {
    std::vector<std::size_t> offsets;
    for (std::size_t end = kBlock; end < text.size();
         end = text.rfind('\n', end - 1) + 1 + kBlock)
        offsets.push_back(end);
    return offsets;
}

/// A general 3000 x 3000 .mtx of at least `target_bytes`: LF and CRLF
/// endings, comment and blank lines, entries in random order (duplicates
/// included) printed at random precision, and a last line without '\n'.
std::string noisy_mtx(std::uint64_t seed, std::size_t target_bytes) {
    Xoshiro256 rng(seed);
    std::ostringstream body;
    std::int64_t entries = 0;
    while (static_cast<std::size_t>(body.tellp()) < target_bytes) {
        const std::uint64_t kind = rng.bounded(40);
        const char* eol = kind % 3 == 0 ? "\n" : "\r\n";
        if (kind == 0) {
            body << "% comment " << std::string(rng.bounded(200), 'c') << eol;
        } else if (kind == 1) {
            body << eol;
        } else {
            const auto digits = 1 + static_cast<int>(rng.bounded(17));
            body << 1 + rng.bounded(3000) << ' ' << 1 + rng.bounded(3000)
                 << ' ' << std::setprecision(digits)
                 << rng.uniform(-1e3, 1e3) << eol;
            ++entries;
        }
    }
    std::string text = "%%MatrixMarket matrix coordinate real general\r\n"
                       "% generated\r\n"
                       "3000 3000 " + std::to_string(entries + 1) + "\r\n" +
                       body.str();
    text += "3000 3000 0.5";  // the last line has no newline
    return text;
}

TEST(MmParallel, BlockReadsMatchChunkedAcrossRefills) {
    const std::string text = noisy_mtx(41, 5 * kBlock / 2);
    const std::vector<std::size_t> refills = refill_offsets(text);
    ASSERT_GE(refills.size(), 2u);
    for (const std::size_t at : refills)
        ASSERT_NE(text[at - 1], '\n') << "refill at " << at << " cuts no line";

    MmReadOptions base;
    base.max_line_bytes = kShortLines;
    const Golden lenient = matrix(3000, 3000, 106079, 0x31edacd9d99fbd67ULL);
    const Golden strict = error(ErrorCode::ValidationError, 1651);
    expect_golden(text, lenient, strict, base, kLargeBlocks);

    const std::string path = temp_path("refill.mtx");
    std::ofstream(path, std::ios::binary) << text;
    for (const std::size_t jobs : kJobs) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        MmReadOptions options = base;
        options.index_width = IndexWidthChoice::W32;
        options.jobs = jobs;
        EXPECT_EQ(lenient,
                  observe(try_read_matrix_market_any_file(path, options)));
    }
    fs::remove(path);
}

TEST(MmParallel, OverlongLineAcrossARefillMatchesChunked) {
    std::string text = noisy_mtx(42, kBlock - 1000);
    text.resize(text.rfind('\n') + 1);  // end on a whole line
    const auto before = static_cast<std::int64_t>(
        std::count(text.begin(), text.end(), '\n'));
    const std::size_t start = text.size();
    ASSERT_LT(start, kBlock);
    ASSERT_GT(start + kShortLines, kBlock);  // the first refill cuts it
    text += "1 1 1." + std::string(kShortLines, '0') + "\n2 2 2.0\n";

    MmReadOptions base;
    base.max_line_bytes = kShortLines;
    const Golden overlong = error(ErrorCode::ParseError, 44804);
    EXPECT_EQ(overlong.line, before + 1);
    expect_golden(text, overlong, error(ErrorCode::ValidationError, 1594),
                  base, kLargeBlocks);
}

// ---- Assembly order: duplicates and unordered input ---------------------

TEST(MmParallel, DuplicatesSumInInsertionOrder) {
    // In file order (1e16 + -1e16) + 1 is exactly 1; any order that adds
    // 1 to either large value first loses it and gives 0. Row 2 lists its
    // columns in descending order with the three entries at (2, 6)
    // spread across it. Row 3 stays empty: the declared count, duplicates
    // included, must not exceed rows * cols.
    std::string entries = "2 6 1e16\n";
    for (std::int64_t c = 64; c >= 1; --c) {
        if (c == 32) entries += "2 6 -1e16\n";
        if (c != 6) entries += "2 " + std::to_string(c) + " 1.0\n";
        entries += "1 " + std::to_string(c) + " 2.0\n";
    }
    entries += "2 6 1\n";
    const auto count = std::count(entries.begin(), entries.end(), '\n');
    const std::string text =
        mtx("real general", {("3 64 " + std::to_string(count)).c_str()}) +
        entries;
    const Result<AnyCsrMatrix> r = parse(text);
    ASSERT_TRUE(r.ok()) << r.error().render();
    const CsrMatrix& m = *r.value().as32();
    ASSERT_EQ(m.nnz(), 128);
    EXPECT_EQ(m.colidx()[64 + 5], 5);
    EXPECT_EQ(m.values()[64 + 5], 1.0);
    expect_small(text, matrix(3, 64, 128, 0xcf4f50d779923b25ULL),
                 error(ErrorCode::ValidationError, 68));
}

struct TextEntry {
    std::int64_t row;  // 1-based, as written
    std::int64_t col;
    double value;
};

std::string coordinate_text(const char* symmetry, std::int64_t n,
                            const std::vector<TextEntry>& entries) {
    std::ostringstream out;
    out << "%%MatrixMarket matrix coordinate real " << symmetry << "\n"
        << n << ' ' << n << ' ' << entries.size() << "\n"
        << std::setprecision(17);
    for (const TextEntry& e : entries)
        out << e.row << ' ' << e.col << ' ' << e.value << "\n";
    return out.str();
}

void shuffle(std::vector<TextEntry>& entries, Xoshiro256& rng) {
    for (std::size_t i = entries.size(); i > 1; --i)
        std::swap(entries[i - 1], entries[rng.bounded(i)]);
}

TEST(MmParallel, UnorderedInputAssemblesLikeRowMajor) {
    // A symmetric matrix stored as its lower triangle, plus the full
    // matrix in row-major order.
    constexpr std::int64_t n = 300;
    Xoshiro256 rng(7);
    std::vector<TextEntry> lower;
    std::vector<TextEntry> full;
    for (std::int64_t r = 1; r <= n; ++r)
        for (std::int64_t c = 1; c <= r; ++c)
            if (c == r || rng.bounded(20) == 0)
                lower.push_back({r, c, rng.uniform(-1.0, 1.0)});
    for (const TextEntry& e : lower) {
        full.push_back(e);
        if (e.row != e.col) full.push_back({e.col, e.row, e.value});
    }
    std::sort(full.begin(), full.end(), [](const auto& a, const auto& b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    const Golden reference = matrix(n, n, 4850, 0x7c8ab803ea5fdff9ULL);
    EXPECT_EQ(reference,
              observe(parse(coordinate_text("general", n, full))));

    shuffle(full, rng);
    shuffle(lower, rng);
    for (const std::string& text :
         {coordinate_text("general", n, full),
          coordinate_text("symmetric", n, lower)})
        expect_golden(text, reference, reference);
}

// ---- Stream failures and the job bound -----------------------------------

/// Serves the first `fail_at` bytes of `text`, then throws as a filebuf
/// does on a failed read(2).
class FailingBuf : public std::streambuf {
public:
    FailingBuf(std::string& text, std::size_t fail_at) {
        setg(text.data(), text.data(), text.data() + fail_at);
    }

protected:
    int_type underflow() override {
        throw std::ios_base::failure("read failed");
    }
};

TEST(MmParallel, FailingStreamIsResourceErrorNotEndOfInput) {
    // The final entry straddles the failure point: the part read before
    // it must not parse as a complete, shorter value.
    std::string text = to_mtx(gen::stencil_2d_5pt(200, 200));
    text.insert(text.find('\n') + 1, "% padding\n");
    for (const std::size_t jobs : kJobs) {
        for (const std::size_t fail_at : {std::size_t{0}, kBlock}) {
            SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                         " fail_at=" + std::to_string(fail_at));
            ASSERT_GT(text.size(), fail_at + kBlock);
            FailingBuf buf(text, fail_at);
            std::istream in(&buf);
            MmReadOptions options;
            options.jobs = jobs;
            const Result<AnyCsrMatrix> r =
                try_read_matrix_market_any(in, options);
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.error().code, ErrorCode::ResourceError)
                << r.error().render();
            if (fail_at == 0 || jobs != 1) continue;
            // One job reads one block per round: the error names the
            // line after the last one the first block completed.
            EXPECT_EQ(r.error().line,
                      std::count(text.begin(), text.begin() + kBlock, '\n') +
                          1);
        }
    }
}

TEST(MmParallel, JobCountBeyondHostCoresStaysBounded) {
    // A million jobs of 1 MiB blocks would be a terabyte of buffers; the
    // reader caps the round at one block per host core.
    MmReadOptions options;
    options.jobs = 1000000;
    EXPECT_EQ(kStencil12,
              observe(parse(to_mtx(gen::stencil_2d_5pt(12, 12)), options)));
}

}  // namespace
}  // namespace spmvcache
