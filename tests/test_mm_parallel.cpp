// Matrix Market reader tests. The reader parses rounds of blocks on a
// thread pool and merges them in file order, and its contract is that
// neither the job count nor the block size changes the outcome. Every
// case below is checked against a golden: the CSR arrays' shape and
// FNV-1a digest (W32 unless a case forces another width), or the typed
// error's (code, line), as an earlier reader produced them (the serial
// block reader, for the storage cases the reader that kept 24-byte entry
// triples, and for the in-place cases the reader before it read lines in
// place). Each golden must hold at every (jobs, block size) grid point,
// in strict and in lenient mode, so blocks cut lines, entry runs and
// over-long lines everywhere a boundary can fall. The suite is
// TSan-friendly (CI runs it under ThreadSanitizer): every grid point with
// more than one job fans out over the pool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
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
template <class Idx>
std::uint64_t digest(const BasicCsrView<Idx>& m) {
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

/// The golden of a read at either width: the digest covers the arrays'
/// bytes, so a W64 matrix never matches a W32 golden.
Golden observe(const Result<AnyCsrMatrix>& r) {
    if (!r.ok()) return error(r.error().code, r.error().line);
    return r.value().view().visit([](const auto& m) {
        return matrix(m.rows(), m.cols(), m.nnz(), digest(m));
    });
}

Result<AnyCsrMatrix> parse(const std::string& text, MmReadOptions options = {},
                           IndexWidthChoice width = IndexWidthChoice::W32) {
    options.index_width = width;
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
/// mode must give `lenient` and strict mode `strict`, reading at `width`.
void expect_golden(const std::string& text, const Golden& lenient,
                   const Golden& strict, MmReadOptions base = {},
                   const std::vector<std::size_t>& blocks = kSmallBlocks,
                   IndexWidthChoice width = IndexWidthChoice::W32) {
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
                          observe(parse(text, options, width)));
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

TEST(MmParallel, IndexFieldsReadLikeFromChars) {
    // Leading '+' and zeros, and runs of 18 and 19 digits.
    expect_small(mtx("real general",
                     {"3 3 3", "+1 +2 1.5", "0002 002 2.5",
                      "000000000000000003 0000000000000000003 3.5"}),
                 matrix(3, 3, 3, 0xf105644ca3935116ULL));
    // Signs, int64's bounds and one past them.
    expect_small(mtx("real general", {"2 2 1", "1 -1 1.0"}),
                 error(ErrorCode::ValidationError, 3));
    expect_small(mtx("real general", {"2 2 1", "9223372036854775807 1 1.0"}),
                 error(ErrorCode::ValidationError, 3));
    expect_small(mtx("real general", {"2 2 1", "9223372036854775808 1 1.0"}),
                 error(ErrorCode::ParseError, 3));
    expect_small(mtx("real general", {"2 2 1", "1 99999999999999999999 1.0"}),
                 error(ErrorCode::ParseError, 3));
}

// ---- Lines read in place, and the lines next to them ---------------------
//
// The reader takes a plain entry line in place: indices of up to 8
// digits, a value, then blanks and a '\n'. Any other line goes through
// the general line parser. The goldens below come from the reader before
// that path existed, so both paths must give its CSR, or its error's code
// and line.

TEST(MmParallel, InPlaceIndicesOfSevenEightAndNineDigits) {
    // Leading zeros count as digits: row fields of 7, 8 and 9 digits, and
    // columns whose values run to 7, 8 and 9 digits.
    const Golden golden = matrix(3, 200000000, 6, 0xa180270ccebc189cULL);
    expect_small(mtx("real general",
                     {"3 200000000 6", "1 1234567 1.5", "1 12345678 2.5",
                      "0000002 123456789 3.5", "00000002 99999999 4.5",
                      "00000003 100000000 5.5", "000000003 7 6.5"}),
                 golden);
    // Out of range at 8 and at 9 digits.
    expect_small(mtx("real general",
                     {"2 50000000 2", "1 1 1.0", "2 50000001 2.0"}),
                 error(ErrorCode::ValidationError, 4));
    expect_small(mtx("real general",
                     {"2 50000000 2", "1 1 1.0", "2 500000000 2.0"}),
                 error(ErrorCode::ValidationError, 4));
    expect_small(mtx("real general", {"2 2 2", "1 1 1.0", "00000000 1 2.0"}),
                 error(ErrorCode::ValidationError, 4));
}

TEST(MmParallel, InPlaceBlanksBetweenFields) {
    expect_small(mtx("real general",
                     {"3 3 6", "1\t1\t1.5", "1  2   2.5", "  2 1 3.5",
                      "\t2\t \t2 \t4.5 \t", "3 1 5.5   ", "3\t\t3\t\t6.5\t\t"}),
                 matrix(3, 3, 6, 0x563428d6bb6cba18ULL));
    expect_small(mtx("pattern general", {"2 2 3", "1\t1", " 1  2 ", "2 2\t"}),
                 matrix(2, 2, 3, 0x0b67a3d8654aeb89ULL));
}

TEST(MmParallel, InPlaceValuesRoundLikeFromChars) {
    // 15 and 16 significant digits; 22 and 23 digits after the point;
    // leading zeros, signed zero and the short forms of a decimal.
    expect_small(mtx("real general",
                     {"1 24 24", "1 1 0.123456789012345", "1 2 123456789012345",
                      "1 3 -9.99999999999999", "1 4 0.1234567890123456",
                      "1 5 9007199254740993", "1 6 -1.000000000000001",
                      "1 7 0.0000000000000000000001",
                      "1 8 0.0000000123456789012345",
                      "1 9 0.00000000000000000000001",
                      "1 10 0.00000000123456789012345",
                      "1 11 1.0000000000000000000000",
                      "1 12 0000000000000000000001.5", "1 13 00.25",
                      "1 14 -007", "1 15 -0", "1 16 5.", "1 17 .5", "1 18 +.5",
                      "1 19 -.75", "1 20 1e5", "1 21 2.5E-3", "1 22 0",
                      "1 23 0.1", "1 24 123456.7890123"}),
                 matrix(1, 24, 24, 0xce4f06f694de6453ULL));
    // Values from_chars alone reads: strict mode refuses the non-finite
    // ones, and 1e400 is out of a double's range in both modes.
    expect_small(mtx("real general", {"2 2 2", "1 1 inf", "2 2 2.0"}),
                 matrix(2, 2, 2, 0x0be7cbf73a54ebd6ULL),
                 error(ErrorCode::ValidationError, 3));
    expect_small(mtx("real general", {"2 2 2", "1 1 -inf", "2 2 2.0"}),
                 matrix(2, 2, 2, 0xc1127ac187cff556ULL),
                 error(ErrorCode::ValidationError, 3));
    expect_small(mtx("real general", {"2 2 2", "1 1 1.0", "2 2 nan"}),
                 matrix(2, 2, 2, 0x32100f921437e47fULL),
                 error(ErrorCode::ValidationError, 4));
    expect_small(mtx("real general", {"2 2 2", "1 1 1e400", "2 2 2.0"}),
                 error(ErrorCode::ParseError, 3));
    // Text the value grammar stops at: lenient mode keeps the number
    // before it, strict mode refuses the rest of the line.
    expect_small(mtx("real general", {"2 2 2", "1 1 1.5.5", "2 2 0x10"}),
                 matrix(2, 2, 2, 0x10192e01d6240b9eULL),
                 error(ErrorCode::ParseError, 3));
    expect_small(mtx("real general", {"2 2 2", "1 1 1.5e", "2 2 2.0"}),
                 matrix(2, 2, 2, 0x1018ee01d6239edeULL),
                 error(ErrorCode::ParseError, 3));
}

TEST(MmParallel, ValueTakesOneSign) {
    // A '-' after the '+' the reader skips is no value in either mode, on
    // the in-place path as on the line cursor; so is a second '+'.
    for (const std::string value : {"+-5", "+-.5e1", "++5", "+-inf"}) {
        const std::string line = "2 2 " + value;
        expect_small(mtx("real general", {"2 2 2", "1 1 1.0", line.c_str()}),
                     error(ErrorCode::ParseError, 4));
    }
}

TEST(MmParallel, DecimalsReadBitForBitAsFromChars) {
    // Random decimals of 1 to 17 digits, signed or not, with the point
    // anywhere in them or up to 12 zeros before them: each value must
    // hold the bits std::from_chars gives for its text.
    constexpr std::int64_t kEntries = 20000;
    Xoshiro256 rng(5);
    std::string text = "%%MatrixMarket matrix coordinate real general\n" +
                       std::to_string(kEntries) + " 1 " +
                       std::to_string(kEntries) + "\n";
    std::vector<double> want;
    for (std::int64_t i = 1; i <= kEntries; ++i) {
        std::string digits;
        const auto n = 1 + rng.bounded(17);
        for (std::uint64_t d = 0; d < n; ++d)
            digits += static_cast<char>('0' + rng.bounded(10));
        std::string value = rng.bounded(2) == 0 ? "-" : "";
        if (rng.bounded(4) == 0) {
            value += "0." + std::string(rng.bounded(13), '0') + digits;
        } else {
            const auto point = rng.bounded(n + 1);
            value += digits.substr(0, point) + "." + digits.substr(point);
        }
        double parsed = 0.0;
        std::from_chars(value.data(), value.data() + value.size(), parsed);
        want.push_back(parsed);
        text += std::to_string(i) + " 1 " + value + "\n";
    }
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
        MmReadOptions options;
        options.jobs = jobs;
        const Result<AnyCsrMatrix> r = parse(text, options);
        ASSERT_TRUE(r.ok()) << r.error().render();
        const auto values = r.value().view().as32()->values();
        ASSERT_EQ(values.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(values[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "line " << i + 3 << " jobs=" << jobs;
    }
}

TEST(MmParallel, InPlaceReadsStopAtABlockEnd) {
    // A comment of every length from 0 to 23 bytes moves the block end of
    // the first round across each byte of the first entries, so an index
    // or a value starts within 8 bytes of it.
    constexpr std::size_t kBlockBytes = 96;
    MmReadOptions base;
    for (std::size_t pad = 0; pad < 24; ++pad) {
        SCOPED_TRACE("pad=" + std::to_string(pad));
        const std::string text =
            "%%MatrixMarket matrix coordinate real general\n%" +
            std::string(pad, 'c') +
            "\n4 87654321 5\n1 12345678 0.125\n2 87654321 -2.5\n"
            "3 1 1234.5678\n4 7654321 -0.0625\n4 87654320 9\n";
        const Golden golden = matrix(4, 87654321, 5, 0xeb82e3b385cf41eaULL);
        expect_golden(text, golden, golden, base, {kBlockBytes, 7, 61});
        expect_golden(crlf(text), golden, golden, base, {kBlockBytes, 7, 61});
    }
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
    EXPECT_EQ(accepted.value().view().as32()->values()[1], 2.0);
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
    const CsrView m = *r.value().view().as32();
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

template <class T>
void shuffle(std::vector<T>& items, Xoshiro256& rng) {
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.bounded(i)]);
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

// ---- Storage: the in-order move and the bucketed scatter ----------------
//
// Entries whose rows arrive in nondecreasing order hand their column and
// value arrays to the CSR; any other order scatters them by row. Every
// golden below was recorded from the reader that kept each entry as a
// 24-byte triple and always scattered, so both paths must give its CSR.

/// The entry lines write_matrix_market prints for `m`, in row-major order.
std::vector<std::string> entry_lines(const CsrMatrix& m) {
    std::istringstream in(to_mtx(m));
    std::vector<std::string> lines;
    std::string line;
    std::getline(in, line);  // banner
    std::getline(in, line);  // size line
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

/// A coordinate file of `kind` and shape rows x cols holding `lines`.
std::string entries_text(const std::string& kind, std::int64_t rows,
                         std::int64_t cols,
                         const std::vector<std::string>& lines) {
    std::string text = "%%MatrixMarket matrix coordinate " + kind + "\n" +
                       std::to_string(rows) + " " + std::to_string(cols) +
                       " " + std::to_string(lines.size()) + "\n";
    for (const std::string& line : lines) text += line + "\n";
    return text;
}

/// Checks an input both modes read alike, and its CRLF twin, at `width`.
void expect_at(IndexWidthChoice width, const std::string& text,
               const Golden& golden) {
    for (const std::string& t : {text, crlf(text)})
        expect_golden(t, golden, golden, {}, kSmallBlocks, width);
}

TEST(MmStorage, RowGoingBackwardsSwitchesToBucketing) {
    const std::vector<std::string> lines =
        entry_lines(gen::stencil_2d_5pt(16, 16));
    // An in-order file plus one entry of an earlier row at the end.
    std::vector<std::string> at_end = lines;
    at_end.push_back("2 5 0.5");
    expect_small(entries_text("real general", 256, 256, at_end),
                 matrix(256, 256, 1217, 0xfdc07662cf0c760cULL));
    // The same row order broken once mid-file, then in order again.
    std::vector<std::string> mid = lines;
    mid.insert(mid.begin() + 600, "1 256 0.25");
    expect_small(entries_text("real general", 256, 256, mid),
                 matrix(256, 256, 1217, 0xf1664e74186ceba0ULL));
    // In order throughout: the move path gives the serial CSR.
    expect_small(entries_text("real general", 256, 256, lines),
                 matrix(256, 256, 1216, 0x9a404a9dc1ecb977ULL));
}

TEST(MmStorage, InOrderRowsMergeUnorderedAndRepeatedColumns) {
    // Rows in order; row 1 lists columns out of order with one repeat,
    // row 2 is empty, row 3 repeats one column three times.
    expect_small(mtx("real general",
                     {"4 6 10", "1 5 1.0", "1 2 2.0", "1 5 3.0", "1 1 4.0",
                      "3 6 5.0", "3 6 6.0", "3 6 7.0", "4 6 8.0", "4 3 9.0",
                      "4 4 10.0"}),
                 matrix(4, 6, 7, 0x87b863fe81327f96ULL),
                 error(ErrorCode::ValidationError, 5));
    // Duplicates sum in file order on the move path too: in file order
    // (1e16 + -1e16) + 1 is exactly 1, any other order gives 0.
    std::string entries;
    for (std::int64_t c = 64; c >= 1; --c)
        entries += "1 " + std::to_string(c) + " 2.0\n";
    entries += "2 6 1e16\n";
    for (std::int64_t c = 64; c >= 1; --c) {
        if (c == 32) entries += "2 6 -1e16\n";
        if (c != 6) entries += "2 " + std::to_string(c) + " 1.0\n";
    }
    entries += "2 6 1\n";
    const auto count = std::count(entries.begin(), entries.end(), '\n');
    const std::string text =
        mtx("real general", {("3 64 " + std::to_string(count)).c_str()}) +
        entries;
    const Result<AnyCsrMatrix> r = parse(text);
    ASSERT_TRUE(r.ok()) << r.error().render();
    EXPECT_EQ(r.value().view().as32()->values()[64 + 5], 1.0);
    expect_small(text, matrix(3, 64, 128, 0xcf4f50d779923b25ULL),
                 error(ErrorCode::ValidationError, 100));
}

/// The lower triangle of a band of half-width 3 in row-major order: the
/// diagonal when `diagonal` is set, a value on each line when `values` is.
std::vector<std::string> lower_band(std::int64_t n, bool diagonal,
                                    bool values = true) {
    std::vector<std::string> lines;
    for (std::int64_t r = 1; r <= n; ++r) {
        for (std::int64_t c = std::max<std::int64_t>(1, r - 3);
             c <= (diagonal ? r : r - 1); ++c) {
            std::string line = std::to_string(r) + " " + std::to_string(c);
            if (values) {
                line += ' ';
                line += std::to_string((r * 31 + c) % 17);
                line += ".25";
            }
            lines.push_back(line);
        }
    }
    return lines;
}

TEST(MmStorage, SymmetricAndSkewFilesAssembleAsBefore) {
    // Every mirrored entry goes back to an earlier row: bucketed.
    expect_small(entries_text("real symmetric", 90, 90, lower_band(90, true)),
                 matrix(90, 90, 618, 0x71aca4c882799cc8ULL));
    expect_small(
        entries_text("real skew-symmetric", 90, 90, lower_band(90, false)),
        matrix(90, 90, 528, 0xb1ec9c067734eb5aULL));
    expect_small(
        entries_text("pattern symmetric", 90, 90,
                     lower_band(90, true, /*values=*/false)),
        matrix(90, 90, 618, 0x11519c261129e48dULL));
    // A diagonal mirrors nothing, so its rows stay in order: moved.
    std::vector<std::string> diagonal;
    for (std::int64_t r = 1; r <= 50; ++r)
        diagonal.push_back(std::to_string(r) + " " + std::to_string(r) +
                           " " + std::to_string(r) + ".5");
    expect_small(entries_text("real symmetric", 50, 50, diagonal),
                 matrix(50, 50, 50, 0x835da1ab2154a537ULL));
}

TEST(MmStorage, WideStorageMovesAndScattersAlike) {
    // Forced 64-bit indices store 8-byte rows and columns.
    std::vector<std::string> lines = entry_lines(gen::stencil_2d_5pt(16, 16));
    const Golden wide = matrix(256, 256, 1216, 0x0e9a99c63c51d7f7ULL);
    expect_at(IndexWidthChoice::W64,
              entries_text("real general", 256, 256, lines), wide);
    Xoshiro256 rng(11);
    shuffle(lines, rng);
    expect_at(IndexWidthChoice::W64,
              entries_text("real general", 256, 256, lines), wide);

    // More columns than int32 holds: auto stores and assembles wide.
    std::vector<std::string> huge = {
        "1 2999999999 1.5", "1 1 2.5",        "1 2147483648 3.5",
        "2 3000000000 -1",  "3 7 4",          "3 2147483648 8",
        "3 2147483647 16"};
    const Golden huge_golden =
        matrix(3, 3000000000, 7, 0xd6d290a9e4a209c3ULL);
    expect_at(IndexWidthChoice::Auto,
              entries_text("real general", 3, 3000000000, huge), huge_golden);
    std::reverse(huge.begin(), huge.end());
    expect_at(IndexWidthChoice::Auto,
              entries_text("real general", 3, 3000000000, huge), huge_golden);
}

TEST(MmStorage, LeadingAndTrailingEmptyRows) {
    // Rows 1, 2, 5, 7 and 8 of 8 hold nothing.
    std::vector<std::string> lines = {"3 1 1.0", "3 4 2.0", "4 2 3.0",
                                      "4 5 4.0", "4 3 5.0", "6 5 6.0"};
    const Golden golden = matrix(8, 5, 6, 0xa12426032537f678ULL);
    expect_small(entries_text("real general", 8, 5, lines), golden);
    std::reverse(lines.begin(), lines.end());
    expect_small(entries_text("real general", 8, 5, lines), golden);
    // A file whose only entries sit in its last row.
    expect_small(mtx("pattern general", {"6 3 2", "6 3", "6 1"}),
                 matrix(6, 3, 2, 0x6a4c2a04c7cc3155ULL));
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
