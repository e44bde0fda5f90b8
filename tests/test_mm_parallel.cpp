// Chunked-parallel Matrix Market parser tests: the contract is
// bit-identity with the serial parser — same CSR arrays on success, same
// typed error with the same 1-based line number on failure — for every
// jobs count and chunk size, including chunk boundaries that split the
// file mid-entry-run. The suite is intentionally TSan-friendly (CI runs
// it under ThreadSanitizer): every case exercises the pool fan-out.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "sparse/gen/banded.hpp"
#include "sparse/gen/random.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/mm_parallel.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

namespace spmvcache {
namespace {

namespace fs = std::filesystem;

/// The jobs/chunking grid every differential case runs over. Tiny
/// min_chunk_bytes forces many chunks even for small inputs, so merge
/// order, line rebasing and boundary splitting all get exercised.
struct Grid {
    std::size_t jobs;
    std::size_t min_chunk_bytes;
};
const std::vector<Grid> kGrid = {
    {1, 1 << 20}, {2, 64}, {3, 64}, {4, 256}, {8, 31}, {0, 4096},
};

MmParallelOptions grid_options(const Grid& g, const MmReadOptions& base) {
    MmParallelOptions options;
    options.base = base;
    options.jobs = g.jobs;
    options.min_chunk_bytes = g.min_chunk_bytes;
    return options;
}

void expect_bit_identical(const CsrMatrix& a, const CsrMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.nnz(), b.nnz());
    EXPECT_EQ(std::memcmp(a.rowptr().data(), b.rowptr().data(),
                          a.rowptr_bytes()),
              0);
    EXPECT_EQ(std::memcmp(a.colidx().data(), b.colidx().data(),
                          a.colidx_bytes()),
              0);
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          static_cast<std::size_t>(a.nnz()) * sizeof(double)),
              0);
}

/// Asserts a serial parse of `text` and the chunked parser agree —
/// bit-identical matrices or identical (code, line) errors — across the
/// whole grid.
void expect_matches_chunked(const Result<CsrMatrix>& serial,
                            const std::string& text,
                            const MmReadOptions& base) {
    for (const Grid& g : kGrid) {
        const Result<CsrMatrix> parallel =
            try_read_matrix_market_parallel(text, grid_options(g, base));
        ASSERT_EQ(serial.ok(), parallel.ok())
            << "jobs=" << g.jobs << " chunk=" << g.min_chunk_bytes
            << (serial.ok() ? " parallel failed: " + parallel.error().render()
                            : " parallel succeeded where serial failed");
        if (!serial.ok()) {
            EXPECT_EQ(serial.error().code, parallel.error().code)
                << "jobs=" << g.jobs << " chunk=" << g.min_chunk_bytes;
            EXPECT_EQ(serial.error().line, parallel.error().line)
                << "jobs=" << g.jobs << " chunk=" << g.min_chunk_bytes
                << " serial: " << serial.error().render()
                << " parallel: " << parallel.error().render();
            continue;
        }
        SCOPED_TRACE("jobs=" + std::to_string(g.jobs) +
                     " chunk=" + std::to_string(g.min_chunk_bytes));
        expect_bit_identical(serial.value(), parallel.value());
    }
}

/// Serial stream parse of `text` against the chunked parser.
void expect_differential(const std::string& text, const MmReadOptions& base) {
    std::istringstream in(text);
    expect_matches_chunked(try_read_matrix_market(in, base), text, base);
}

void expect_differential(const std::string& text, bool strict = false) {
    MmReadOptions base;
    base.strict = strict;
    expect_differential(text, base);
}

std::string to_mtx(const CsrMatrix& m) {
    std::ostringstream out;
    write_matrix_market(out, m);
    return out.str();
}

TEST(MmParallel, GeneratedMatricesAreBitIdentical) {
    expect_differential(to_mtx(gen::stencil_2d_5pt(16, 16)));
    expect_differential(to_mtx(gen::banded(120, 7, 2, 3)));
    expect_differential(to_mtx(gen::random_uniform(90, 90, 8, 17)));
    expect_differential(to_mtx(gen::random_variable_rows(80, 80, 5.0,
                                                         2.0, 9)));
}

TEST(MmParallel, HandlesCommentsBlankLinesAndPattern) {
    expect_differential(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment between header and size\n"
        "\n"
        "3 3 4\n"
        "% comment between entries\n"
        "1 1\n"
        "2 2\n"
        "\n"
        "3 1\n"
        "3 3\n");
}

TEST(MmParallel, HandlesSymmetricAndSkewMirroring) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 1.5\n"
        "2 1 -2.0\n"
        "3 2 0.25\n"
        "3 3 4.0\n");
    expect_differential(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 2\n"
        "2 1 -2.0\n"
        "3 2 0.25\n");
}

TEST(MmParallel, HandlesIntegerFieldAndExponents) {
    expect_differential(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 3 3\n"
        "1 1 7\n"
        "1 3 -2\n"
        "2 2 9\n");
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.25e-3\n"
        "1 2 -7.5E+2\n"
        "2 2 +0.5\n");
}

TEST(MmParallel, LenientDuplicatesSumIdentically) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n"
        "1 1 1.0\n"
        "1 1 2.0\n"
        "2 2 4.0\n"
        "2 1 8.0\n");
}

// ---- Error differentials: same code, same line, every grid point -------

TEST(MmParallel, MalformedEntryReportsSerialLineNumber) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 4\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "2 x 3.0\n"
        "3 3 4.0\n");
}

TEST(MmParallel, OutOfRangeIndexReportsSerialLineNumber) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "% a comment to shift line numbers\n"
        "2 7 2.0\n"
        "3 3 3.0\n");
}

TEST(MmParallel, TruncatedFileReportsSameError) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "4 4 6\n"
        "1 1 1.0\n"
        "2 2 2.0\n");
}

TEST(MmParallel, MissingValueReportsSameError) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "2 2\n"
        "3 3 3.0\n");
}

TEST(MmParallel, StrictRejectsWhatSerialStrictRejects) {
    // Duplicate entry (strict sums are forbidden).
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n"
        "1 1 2.0\n"
        "2 2 4.0\n",
        /*strict=*/true);
    // Data after the declared final entry.
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "1 2 9.0\n",
        /*strict=*/true);
    // Trailing garbage on an entry line.
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0 junk\n"
        "2 2 2.0\n",
        /*strict=*/true);
    // Above-diagonal entry in a symmetric file.
    expect_differential(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "1 2 1.0\n"
        "3 3 2.0\n",
        /*strict=*/true);
    // Non-finite value.
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 nan\n"
        "2 2 2.0\n",
        /*strict=*/true);
}

TEST(MmParallel, LenientIgnoresDataAfterFinalEntry) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "1 2 9.0\n",
        /*strict=*/false);
}

TEST(MmParallel, HeaderErrorsMatchSerial) {
    expect_differential("%%MatrixMarket matrix coordinate complex general\n"
                        "1 1 1\n"
                        "1 1 1.0 0.0\n");
    expect_differential("not a matrix market file\n");
    expect_differential("%%MatrixMarket matrix coordinate real general\n"
                        "2 -2 1\n"
                        "1 1 1.0\n");
    expect_differential("");
}

TEST(MmParallel, FileWithoutTrailingNewlineParses) {
    expect_differential(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 2.0");
}

TEST(MmParallel, FileWrapperMatchesSerialWrapper) {
    const fs::path dir =
        fs::path(testing::TempDir()) /
        ("spmv_mm_par_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const CsrMatrix m = gen::stencil_2d_5pt(12, 12);
    const std::string path = (dir / "m.mtx").string();
    write_matrix_market_file(path, m);

    const Result<CsrMatrix> serial = try_read_matrix_market_file(path);
    MmParallelOptions options;
    options.jobs = 3;
    options.min_chunk_bytes = 128;
    const Result<CsrMatrix> parallel =
        try_read_matrix_market_parallel_file(path, options);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok()) << parallel.error().render();
    EXPECT_EQ(serial.value().nnz(), parallel.value().nnz());

    // Missing file: both wrappers produce the same typed error.
    const Result<CsrMatrix> serial_missing =
        try_read_matrix_market_file((dir / "no.mtx").string());
    const Result<CsrMatrix> parallel_missing =
        try_read_matrix_market_parallel_file((dir / "no.mtx").string(),
                                             options);
    EXPECT_EQ(serial_missing.error().code, parallel_missing.error().code);
    fs::remove_all(dir);
}

TEST(MmParallel, ChunkFaultInjectionSurfacesTypedError) {
    const std::string text = to_mtx(gen::stencil_2d_5pt(12, 12));
    MmParallelOptions options;
    options.jobs = 4;
    options.min_chunk_bytes = 64;
    {
        fault::ScopedFault f("mm.parallel");
        const Result<CsrMatrix> r =
            try_read_matrix_market_parallel(text, options);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, ErrorCode::FaultInjected);
    }
    fault::disarm_all();
    EXPECT_TRUE(try_read_matrix_market_parallel(text, options).ok());
}

TEST(MmParallel, OverlongLineMatchesSerial) {
    std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1.0\n";
    text += "2 2 2.0" + std::string(100, ' ') + "\n";
    MmReadOptions serial_options;
    serial_options.max_line_bytes = 32;
    std::istringstream in(text);
    const Result<CsrMatrix> serial =
        try_read_matrix_market(in, serial_options);
    MmParallelOptions options;
    options.base.max_line_bytes = 32;
    options.jobs = 3;
    options.min_chunk_bytes = 16;
    const Result<CsrMatrix> parallel =
        try_read_matrix_market_parallel(text, options);
    ASSERT_FALSE(serial.ok());
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(serial.error().code, parallel.error().code);
    EXPECT_EQ(serial.error().line, parallel.error().line);

    // One line rule in both parsers: an entry line of exactly
    // max_line_bytes parses, one byte more is a ParseError at that line.
    MmReadOptions base;
    base.max_line_bytes = 48;
    const auto with_entry_of = [](std::size_t bytes) {
        std::string entry = "2 2 2.";
        entry.resize(bytes, '0');
        return "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n"
               "1 1 1.0\n" +
               entry + "\n";
    };
    std::istringstream fits(with_entry_of(48));
    const Result<CsrMatrix> accepted = try_read_matrix_market(fits, base);
    ASSERT_TRUE(accepted.ok()) << accepted.error().render();
    EXPECT_EQ(accepted.value().values()[1], 2.0);
    expect_differential(with_entry_of(48), base);

    std::istringstream overlong(with_entry_of(49));
    const Result<CsrMatrix> rejected = try_read_matrix_market(overlong, base);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code, ErrorCode::ParseError);
    EXPECT_EQ(rejected.error().line, 4);
    expect_differential(with_entry_of(49), base);
}

// ---- Serial block reads: lines cut by a refill --------------------------

/// The serial reader fills a buffer of max(1 MiB, max_line_bytes + 2)
/// bytes; at this max_line_bytes that is exactly 1 MiB.
constexpr std::size_t kShortLines = 4096;
constexpr std::size_t kBlock = std::size_t{1} << 20;

/// Offsets at which the serial reader refills: each read tops up the
/// buffer after the line cut by the previous one moves to its front.
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
    std::istringstream in(text);
    const Result<CsrMatrix> stream = try_read_matrix_market(in, base);
    ASSERT_TRUE(stream.ok()) << stream.error().render();
    expect_matches_chunked(stream, text, base);

    const fs::path dir =
        fs::path(testing::TempDir()) /
        ("spmv_mm_refill_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string path = (dir / "m.mtx").string();
    std::ofstream(path, std::ios::binary) << text;
    const Result<CsrMatrix> file = try_read_matrix_market_file(path, base);
    ASSERT_TRUE(file.ok()) << file.error().render();
    expect_matches_chunked(file, text, base);
    expect_bit_identical(stream.value(), file.value());
    fs::remove_all(dir);
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
    std::istringstream in(text);
    const Result<CsrMatrix> serial = try_read_matrix_market(in, base);
    ASSERT_FALSE(serial.ok());
    EXPECT_EQ(serial.error().code, ErrorCode::ParseError);
    EXPECT_EQ(serial.error().line, before + 1);
    expect_matches_chunked(serial, text, base);
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
        "%%MatrixMarket matrix coordinate real general\n3 64 " +
        std::to_string(count) + "\n" + entries;
    std::istringstream in(text);
    const Result<CsrMatrix> serial = try_read_matrix_market(in);
    ASSERT_TRUE(serial.ok()) << serial.error().render();
    const CsrMatrix& m = serial.value();
    ASSERT_EQ(m.nnz(), 128);
    EXPECT_EQ(m.colidx()[64 + 5], 5);
    EXPECT_EQ(m.values()[64 + 5], 1.0);
    expect_differential(text);
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
    const std::string row_major = coordinate_text("general", n, full);
    std::istringstream in(row_major);
    const Result<CsrMatrix> reference = try_read_matrix_market(in);
    ASSERT_TRUE(reference.ok()) << reference.error().render();

    shuffle(full, rng);
    shuffle(lower, rng);
    for (const std::string& text :
         {coordinate_text("general", n, full),
          coordinate_text("symmetric", n, lower)}) {
        std::istringstream shuffled(text);
        const Result<CsrMatrix> serial = try_read_matrix_market(shuffled);
        ASSERT_TRUE(serial.ok()) << serial.error().render();
        expect_bit_identical(reference.value(), serial.value());
        expect_differential(text);
    }
}

}  // namespace
}  // namespace spmvcache
