#include "model/classify.hpp"

#include "util/checked.hpp"
#include "util/error.hpp"

namespace spmvcache {

std::string to_string(MatrixClass c) {
    switch (c) {
        case MatrixClass::Class1:
            return "(1)";
        case MatrixClass::Class2:
            return "(2)";
        case MatrixClass::Class3a:
            return "(3a)";
        case MatrixClass::Class3b:
            return "(3b)";
    }
    return "?";
}

MatrixClass classify(const MatrixStats& stats, std::uint64_t cache_bytes,
                     std::uint64_t sector0_bytes) {
    // The class boundaries are byte comparisons; a wrapped byte count
    // would misclassify silently (class (3b) looking like (1)), so every
    // product and sum is overflow-checked.
    std::uint64_t x_bytes = 0, y_bytes = 0, rowptr_bytes = 0;
    SPMV_EXPECTS(checked_mul<std::uint64_t>(
        static_cast<std::uint64_t>(stats.cols), 8, x_bytes));
    SPMV_EXPECTS(checked_mul<std::uint64_t>(
        static_cast<std::uint64_t>(stats.rows), 8, y_bytes));
    SPMV_EXPECTS(checked_mul<std::uint64_t>(
        static_cast<std::uint64_t>(stats.rows) + 1,
        rowptr_width_bytes(stats.index_width), rowptr_bytes));

    if (stats.working_set_bytes <= cache_bytes) return MatrixClass::Class1;
    std::uint64_t vectors_bytes = 0;
    SPMV_EXPECTS(checked_add(x_bytes, y_bytes, vectors_bytes));
    SPMV_EXPECTS(checked_add(vectors_bytes, rowptr_bytes, vectors_bytes));
    if (vectors_bytes <= sector0_bytes) return MatrixClass::Class2;
    if (x_bytes <= sector0_bytes) return MatrixClass::Class3a;
    return MatrixClass::Class3b;
}

MatrixClass classify(const AnyCsrView& m, std::uint64_t cache_bytes,
                     std::uint64_t sector0_bytes) {
    return classify(compute_stats(m), cache_bytes, sector0_bytes);
}

}  // namespace spmvcache
