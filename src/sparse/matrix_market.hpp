// Matrix Market (.mtx) I/O, so real SuiteSparse matrices — the paper's data
// set — can be dropped into any bench via --mm when available.
//
// Supports the coordinate format with real/integer/pattern fields and
// general/symmetric/skew-symmetric symmetry. Pattern entries get value 1.0.
//
// The parser is hardened for unattended batch sweeps over hundreds of
// downloaded matrices: every failure is a typed Error (util/status.hpp)
// carrying the 1-based input line, dimension and nnz arithmetic is
// overflow-checked, line length is bounded, and a strict mode rejects
// trailing garbage, duplicate entries and upper-triangle entries in
// symmetric files instead of silently repairing them.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/any_csr.hpp"
#include "sparse/csr.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Parser knobs; default-constructed == lenient (historical behaviour).
struct MmReadOptions {
    /// Strict mode rejects what lenient mode repairs: trailing tokens after
    /// the size line or an entry, duplicate (row, col) entries (lenient
    /// sums them), and entries above the diagonal in symmetric files
    /// (lenient mirrors them anyway).
    bool strict = false;
    /// Any input line longer than this is a ParseError; guards the parser
    /// against pathological single-line files.
    std::size_t max_line_bytes = std::size_t{1} << 20;
    /// Target CSR index width for the `_any` entry points: Auto narrows
    /// whenever the parsed shape fits the W32 layout and widens otherwise;
    /// a forced W32 rejects oversized shapes at the size line, before any
    /// entry is read. The non-`_any` entry points ignore this and always
    /// force W32 (their return type is the narrow CsrMatrix).
    IndexWidthChoice index_width = default_index_width_choice();
};

/// Parses a Matrix Market stream. Errors carry the 1-based line number of
/// the offending input line. The stream is read in blocks, so input after
/// the final entry may be consumed too.
[[nodiscard]] Result<CsrMatrix> try_read_matrix_market(
    std::istream& in, const MmReadOptions& options = {});

/// Reads a .mtx file from disk; the error chain names the file.
[[nodiscard]] Result<CsrMatrix> try_read_matrix_market_file(
    const std::string& path, const MmReadOptions& options = {});

/// Width-aware parse: honours options.index_width and materializes the
/// CSR arrays directly at the resolved width (no widen-then-narrow pass).
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any(
    std::istream& in, const MmReadOptions& options = {});

/// Width-aware file read; the error chain names the file.
[[nodiscard]] Result<AnyCsrMatrix> try_read_matrix_market_any_file(
    const std::string& path, const MmReadOptions& options = {});

/// Legacy throwing wrapper: throws StatusError (a std::runtime_error) on
/// malformed input or unsupported format (complex field, array format).
[[nodiscard]] CsrMatrix read_matrix_market(std::istream& in);

/// Legacy throwing wrapper: throws StatusError if unreadable or malformed.
[[nodiscard]] CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `m` in coordinate/real/general format.
void write_matrix_market(std::ostream& out, const CsrMatrix& m);

/// Writes `m` to a .mtx file. Throws StatusError if unwritable.
void write_matrix_market_file(const std::string& path, const CsrMatrix& m);

}  // namespace spmvcache
