// CSV output for experiment records, so results can be re-plotted outside
// this repository (each bench can dump its raw per-matrix data via --csv).
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace spmvcache {

/// One CSV field as RFC 4180 writes it: quoted when it holds a comma, a
/// quote or a newline, with each quote inside doubled.
[[nodiscard]] std::string csv_quote(const std::string& field);

/// Minimal RFC-4180-style CSV writer (quotes fields containing separators).
class CsvWriter {
public:
    /// Opens `path` for writing and emits the header row.
    /// Throws std::runtime_error if the file cannot be opened.
    CsvWriter(const std::string& path, std::vector<std::string> header);

    /// Writes one data row. Pre: cells.size() == header size.
    void write_row(const std::vector<std::string>& cells);

    [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

private:
    void emit(const std::vector<std::string>& cells);

    std::ofstream out_;
    std::size_t columns_;
    std::size_t rows_ = 0;
};

}  // namespace spmvcache
