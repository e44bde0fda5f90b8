#include "util/csv.hpp"

#include <stdexcept>

#include "util/error.hpp"

namespace spmvcache {

std::string csv_quote(const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string quoted = "\"";
    for (char ch : field) {
        if (ch == '"') quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : out_(path), columns_(header.size()) {
    if (!out_) throw std::runtime_error("cannot open CSV file: " + path);
    SPMV_EXPECTS(columns_ > 0);
    emit(header);
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
    SPMV_EXPECTS(cells.size() == columns_);
    emit(cells);
    ++rows_;
}

void CsvWriter::emit(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i != 0) out_ << ',';
        out_ << csv_quote(cells[i]);
    }
    out_ << '\n';
}

}  // namespace spmvcache
