// Matrix Market (.mtx) I/O, so real SuiteSparse matrices — the paper's data
// set — can be dropped into any bench via --mm when available.
//
// Supports the coordinate format with real/integer/pattern fields and
// general/symmetric/skew-symmetric symmetry. Pattern entries get value 1.0.
//
// The reader is hardened for unattended batch sweeps over hundreds of
// downloaded matrices: every failure is a typed Error (util/status.hpp)
// carrying the 1-based input line, dimension and nnz arithmetic is
// overflow-checked, line length is bounded, and a strict mode rejects
// trailing garbage, duplicate entries and upper-triangle entries in
// symmetric files instead of silently repairing them.
//
// It streams (DESIGN.md §8): each round reads up to `jobs` blocks, cuts
// them at newlines, parses the pieces (on a thread pool when there is more
// than one job) and merges them in file order, carrying the cut line into
// the next round. The outcome — matrix, or error code and line — does not
// depend on `jobs` or on the block size.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/any_csr.hpp"
#include "sparse/csr.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Reader knobs; default-constructed == lenient, one job.
struct MmReadOptions {
    /// Strict mode rejects what lenient mode repairs: trailing tokens after
    /// the size line or an entry, duplicate (row, col) entries (lenient
    /// sums them), and entries above the diagonal in symmetric files
    /// (lenient mirrors them anyway).
    bool strict = false;
    /// Any input line longer than this is a ParseError; guards the reader
    /// against pathological single-line files.
    std::size_t max_line_bytes = std::size_t{1} << 20;
    /// Target CSR index width: Auto narrows whenever the parsed shape fits
    /// the W32 layout and widens otherwise; a forced W32 rejects oversized
    /// shapes at the size line, before any entry is read. Callers that
    /// need a narrow CsrMatrix force W32 and take the W32 arm.
    IndexWidthChoice index_width = default_index_width_choice();
    /// Parse workers: 1 parses inline on the caller, 0 = one per host
    /// core, N = that many but never more than the host's cores. The
    /// result is the same for every value.
    std::size_t jobs = 1;
    /// Bytes per worker per round. Only memory use and the number of
    /// rounds depend on it; tests shrink it so blocks cut lines.
    std::size_t block_bytes = std::size_t{1} << 20;
};

/// Parses a Matrix Market stream at the width options.index_width
/// resolves to, materializing the CSR arrays directly at that width.
/// Errors carry the 1-based line number of the offending input line; a
/// stream that fails mid-read is a ResourceError at the first line it
/// could not deliver in full. Input after the final entry may be
/// consumed too.
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::istream& in, const MmReadOptions& options = {});

/// Reads a .mtx file from disk; the error chain names the file.
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options = {});

/// Throwing narrow read: throws StatusError (a std::runtime_error) on
/// malformed input or unsupported format (complex field, array format).
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);

/// Throwing narrow file read: throws StatusError if unreadable or
/// malformed.
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `m` in coordinate/real/general format.
void write_matrix_market(std::ostream& out, const CsrMatrix& m);

/// Writes `m` to a .mtx file. Throws StatusError if unwritable.
void write_matrix_market_file(const std::string& path, const CsrMatrix& m);

}  // namespace spmvcache
