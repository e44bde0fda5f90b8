// Width-erased CSR handles for pipeline boundaries.
//
// Inside a subsystem (parser, kernel engine, trace generator, model
// method) everything is templated on Idx32/Idx64 and pays nothing for the
// choice. At the seams — CLI subcommands, the matrix source, the binary
// cache loader — the width is a runtime fact, so these variants carry
// "a matrix at whichever width it resolved to" plus the width-agnostic
// accessors (dims, byte sizes) that the seams need without dispatching.
// Anything that touches the actual arrays goes through visit().
#pragma once

#include <cstdint>
#include <utility>
#include <variant>

#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"

namespace spmvcache {

/// Non-owning view of a CSR matrix at either index width. Same lifetime
/// rules as BasicCsrView: never keeps anything alive.
class AnyCsrView {
public:
    AnyCsrView() = default;
    /* implicit */ AnyCsrView(CsrView v) noexcept : v_(v) {}
    /* implicit */ AnyCsrView(CsrView64 v) noexcept : v_(v) {}
    /* implicit */ AnyCsrView(const CsrMatrix& m) noexcept : v_(CsrView(m)) {}
    /* implicit */ AnyCsrView(const CsrMatrix64& m) noexcept
        : v_(CsrView64(m)) {}

    [[nodiscard]] IndexWidth index_width() const noexcept {
        return v_.index() == 0 ? IndexWidth::W32 : IndexWidth::W64;
    }

    /// Invokes f with the concrete BasicCsrView<Idx>.
    template <class F>
    decltype(auto) visit(F&& f) const {
        return std::visit(std::forward<F>(f), v_);
    }

    [[nodiscard]] const CsrView* as32() const noexcept {
        return std::get_if<CsrView>(&v_);
    }
    [[nodiscard]] const CsrView64* as64() const noexcept {
        return std::get_if<CsrView64>(&v_);
    }

    [[nodiscard]] std::int64_t rows() const noexcept {
        return visit([](const auto& v) { return v.rows(); });
    }
    [[nodiscard]] std::int64_t cols() const noexcept {
        return visit([](const auto& v) { return v.cols(); });
    }
    [[nodiscard]] std::int64_t nnz() const noexcept {
        return visit([](const auto& v) { return v.nnz(); });
    }
    [[nodiscard]] std::uint64_t values_bytes() const noexcept {
        return visit([](const auto& v) { return v.values_bytes(); });
    }
    [[nodiscard]] std::uint64_t colidx_bytes() const noexcept {
        return visit([](const auto& v) { return v.colidx_bytes(); });
    }
    [[nodiscard]] std::uint64_t rowptr_bytes() const noexcept {
        return visit([](const auto& v) { return v.rowptr_bytes(); });
    }
    [[nodiscard]] std::uint64_t x_bytes() const {
        return visit([](const auto& v) { return v.x_bytes(); });
    }
    [[nodiscard]] std::uint64_t y_bytes() const {
        return visit([](const auto& v) { return v.y_bytes(); });
    }
    [[nodiscard]] std::uint64_t working_set_bytes() const {
        return visit([](const auto& v) { return v.working_set_bytes(); });
    }

private:
    std::variant<CsrView, CsrView64> v_;
};

/// Owning CSR matrix at either index width.
class AnyCsrMatrix {
public:
    AnyCsrMatrix() = default;
    /* implicit */ AnyCsrMatrix(CsrMatrix m) noexcept : v_(std::move(m)) {}
    /* implicit */ AnyCsrMatrix(CsrMatrix64 m) noexcept : v_(std::move(m)) {}

    [[nodiscard]] IndexWidth index_width() const noexcept {
        return v_.index() == 0 ? IndexWidth::W32 : IndexWidth::W64;
    }

    template <class F>
    decltype(auto) visit(F&& f) const {
        return std::visit(std::forward<F>(f), v_);
    }

    [[nodiscard]] const CsrMatrix* as32() const noexcept {
        return std::get_if<CsrMatrix>(&v_);
    }
    [[nodiscard]] const CsrMatrix64* as64() const noexcept {
        return std::get_if<CsrMatrix64>(&v_);
    }

    /// Moves the narrow alternative out. Pre: index_width() == W32.
    [[nodiscard]] CsrMatrix take32() && {
        return std::get<CsrMatrix>(std::move(v_));
    }
    /// Moves the wide alternative out. Pre: index_width() == W64.
    [[nodiscard]] CsrMatrix64 take64() && {
        return std::get<CsrMatrix64>(std::move(v_));
    }

    /// A width-erased view of this matrix (valid while *this lives).
    [[nodiscard]] AnyCsrView view() const noexcept {
        return visit([](const auto& m) { return AnyCsrView(m); });
    }

    [[nodiscard]] std::int64_t rows() const noexcept {
        return visit([](const auto& m) { return m.rows(); });
    }
    [[nodiscard]] std::int64_t cols() const noexcept {
        return visit([](const auto& m) { return m.cols(); });
    }
    [[nodiscard]] std::int64_t nnz() const noexcept {
        return visit([](const auto& m) { return m.nnz(); });
    }

private:
    std::variant<CsrMatrix, CsrMatrix64> v_;
};

}  // namespace spmvcache
