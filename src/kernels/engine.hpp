// High-throughput SpMV kernel engine.
//
// The engine is the executable counterpart of the model: where the trace
// generator and simulator *predict* the locality of Listing 1, the engine
// *runs* it — repeatedly, on a persistent WorkerTeam whose workers own
// fixed row/chunk ranges, with kernel variants selected at runtime:
//
//   CsrScalar    the Listing-1 loop per row range (bit-identical to
//                spmv_csr; the reference the benches time every other
//                variant against)
//   CsrPrefetch  scalar loop + __builtin_prefetch of the x[colidx[i+d]]
//                gather and of the values/colidx streams at distance d
//                (auto-calibrated unless EngineOptions pins it; d = 0 is
//                the CsrScalar loop) — the software-prefetch lever of
//                Alappat et al.
//   CsrSimd      vectorized CSR rows via the simd.hpp shim
//                (AVX2/AVX-512/NEON, scalar fallback)
//   SellScalar / SellSimd
//                SELL-C-sigma chunk kernels (Kreutzer et al.), chunk loop
//                column-major (C = 8, sigma = 256); the engine computes
//                the SELL geometry once and each worker fills its own
//                chunks of the padded arrays
//   CsrMerge     merge-path decomposition (Merrill & Garland) across the
//                team for row-imbalanced matrices
//   Auto         merge when the row partition is imbalanced, else
//                sell-simd when the SELL layout it would build pads the
//                nonzeros by at most kSellMaxPadding (the probe is that
//                layout's geometry, kept for the run), else csr-simd, and
//                csr-prefetch with no vector ISA; DESIGN.md §5 decision 11
//
// Worker i always executes range i (WorkerTeam guarantee), and the
// engine's arrays are first touched by their owning worker, so pages
// land on the NUMA node that computes on them. With
// threads == 1 the engine runs inline on the calling thread with no team
// at all (the documented sequential fallback).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "kernels/simd.hpp"
#include "kernels/spmv_merge.hpp"
#include "sparse/any_csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/partition.hpp"
#include "sparse/sellcs.hpp"
#include "sync/worker_team.hpp"
#include "util/align.hpp"
#include "util/status.hpp"

namespace spmvcache {

/// Executable kernel implementations the engine can dispatch to.
enum class KernelVariant : std::uint8_t {
    CsrScalar,
    CsrPrefetch,
    CsrSimd,
    SellScalar,
    SellSimd,
    CsrMerge,
    Auto,
};

[[nodiscard]] const char* to_string(KernelVariant variant) noexcept;

/// Parses "csr", "csr-prefetch", "csr-simd", "sell", "sell-simd", "merge"
/// or "auto" (ValidationError otherwise).
[[nodiscard]] Result<KernelVariant> parse_kernel_variant(
    std::string_view name);

struct EngineOptions {
    /// Worker count; 0 = all hardware threads, 1 = sequential fallback.
    std::int64_t threads = 1;
    KernelVariant variant = KernelVariant::Auto;
    /// Lookahead (in nonzeros) for CsrPrefetch; 0 = auto-calibrate.
    std::int64_t prefetch_distance = 0;
};

/// Resolved configuration, surfaced through bench/CLI output.
struct EngineInfo {
    KernelVariant variant = KernelVariant::CsrScalar;  ///< post-Auto
    simd::Isa isa = simd::Isa::Scalar;  ///< for the *Simd variants
    std::int64_t prefetch_distance = 0;  ///< post-calibration
    std::int64_t threads = 1;
    /// Padded/logical nnz of the sigma-sorted SELL layout, whenever the
    /// engine built it (SELL variants) or auto probed it; 0 otherwise.
    double sell_padding = 0.0;
    double imbalance = 1.0;  ///< nnz imbalance of the row partition
    /// Always true: every engine computes on first-touch copies.
    bool first_touch = true;
};

/// Cache-line-aligned storage that is NOT zero-initialised at allocation,
/// so the engine's workers (not the allocating thread) perform the first
/// touch of every page they own.
template <class T>
class FirstTouchBuffer {
    static_assert(std::is_trivial_v<T>,
                  "first-touch storage skips construction");

public:
    FirstTouchBuffer() = default;
    explicit FirstTouchBuffer(std::size_t n) : size_(n) {
        if (n > 0) data_ = AlignedAllocator<T>{}.allocate(n);
    }
    ~FirstTouchBuffer() {
        if (data_ != nullptr) AlignedAllocator<T>{}.deallocate(data_, size_);
    }

    FirstTouchBuffer(FirstTouchBuffer&& other) noexcept
        : data_(other.data_), size_(other.size_) {
        other.data_ = nullptr;
        other.size_ = 0;
    }
    FirstTouchBuffer& operator=(FirstTouchBuffer&& other) noexcept {
        if (this != &other) {
            if (data_ != nullptr)
                AlignedAllocator<T>{}.deallocate(data_, size_);
            data_ = other.data_;
            size_ = other.size_;
            other.data_ = nullptr;
            other.size_ = 0;
        }
        return *this;
    }
    FirstTouchBuffer(const FirstTouchBuffer&) = delete;
    FirstTouchBuffer& operator=(const FirstTouchBuffer&) = delete;

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
    [[nodiscard]] std::span<const T> span() const noexcept {
        return {data_, size_};
    }

private:
    T* data_ = nullptr;
    std::size_t size_ = 0;
};

/// Persistent-team SpMV executor at one physical index width: construct
/// once per matrix, run many iterations. run() computes y <- y + A x
/// exactly like spmv_csr. `KernelEngine` (= the Idx32 instantiation) is
/// the default pipeline; `KernelEngine64` serves the wide fallback.
template <class Idx>
class BasicKernelEngine {
public:
    using offset_type = typename Idx::offset_type;
    using index_type = typename Idx::index_type;

    /// Splits the rows by nonzeros over options.threads workers (SELL
    /// splits chunks by padded nonzeros and merge by path diagonals) and
    /// copies the CSR arrays, or fills the SELL arrays, the variant reads,
    /// each slice first touched by the worker that computes on it; `a`
    /// need not outlive the engine.
    BasicKernelEngine(const BasicCsrView<Idx>& a,
                      const EngineOptions& options);
    ~BasicKernelEngine();

    BasicKernelEngine(const BasicKernelEngine&) = delete;
    BasicKernelEngine& operator=(const BasicKernelEngine&) = delete;

    /// y <- y + A x (one iteration). Pre: x.size() == cols, y.size() == rows.
    void run(std::span<const double> x, std::span<double> y);

    /// y <- y + A x, `iterations` times. The CSR and SELL variants run all
    /// iterations inside a single team dispatch (ranges are disjoint, so
    /// no barrier is needed between iterations); merge barriers once per
    /// iteration for the carry fix-up.
    void run_iterations(std::span<const double> x, std::span<double> y,
                        std::int64_t iterations);

    [[nodiscard]] const EngineInfo& info() const noexcept { return info_; }

    /// The SELL layout a sell or sell-simd engine runs on: its geometry,
    /// and the chunk-major arrays the workers filled in place. Pre: the
    /// resolved variant is a SELL one.
    [[nodiscard]] const BasicSellGeometry<Idx>& sell_geometry() const;
    [[nodiscard]] std::span<const double> sell_values() const noexcept {
        return sell_values_.span();
    }
    [[nodiscard]] std::span<const index_type> sell_colidx() const noexcept {
        return sell_colidx_.span();
    }

private:
    void resolve_variant(const BasicCsrView<Idx>& a,
                         const EngineOptions& options);
    void setup_csr(const BasicCsrView<Idx>& a);
    void setup_sell(const BasicCsrView<Idx>& a);
    void setup_merge(const BasicCsrView<Idx>& a);
    void calibrate_prefetch(std::int64_t pinned_distance);
    void dispatch(const std::function<void(std::size_t)>& body);

    void run_csr(std::span<const double> x, std::span<double> y,
                 std::int64_t iterations);
    void run_sell(std::span<const double> x, std::span<double> y,
                  std::int64_t iterations);
    void run_merge(std::span<const double> x, std::span<double> y,
                   std::int64_t iterations);

    EngineInfo info_;
    std::int64_t rows_ = 0;
    std::int64_t cols_ = 0;
    std::int64_t nnz_ = 0;
    RowPartition partition_;
    std::unique_ptr<WorkerTeam> team_;  ///< null when threads == 1

    // CSR data: first-touch copies of the source matrix's arrays.
    FirstTouchBuffer<offset_type> rowptr_;
    FirstTouchBuffer<index_type> colidx_;
    FirstTouchBuffer<double> values_;

    // SELL data (kept only for the Sell* variants): the geometry and
    // permutation, and the chunk-major arrays the kernel streams, each
    // worker's chunks filled in place by that worker.
    std::optional<BasicSellGeometry<Idx>> sell_;
    std::vector<RowRange> chunk_ranges_;  ///< chunks owned per worker
    FirstTouchBuffer<double> sell_values_;
    FirstTouchBuffer<index_type> sell_colidx_;

    // Merge data: per-piece path coordinates and carry slots.
    std::vector<MergeCoordinate> piece_begin_;
    std::vector<MergeCoordinate> piece_end_;
    std::vector<std::int64_t> carry_row_;
    std::vector<double> carry_value_;

    simd::Dispatch simd_;  ///< both-widths kernel set; get<Idx>() is used
};

using KernelEngine = BasicKernelEngine<Idx32>;
using KernelEngine64 = BasicKernelEngine<Idx64>;

extern template class BasicKernelEngine<Idx32>;
extern template class BasicKernelEngine<Idx64>;

/// Width-erased engine for callers that hold an AnyCsrView (the CLI, the
/// daemon, benchmarks): constructs the engine matching the view's
/// physical width and forwards the run interface.
class AnyKernelEngine {
public:
    AnyKernelEngine(const AnyCsrView& a, const EngineOptions& options);

    void run(std::span<const double> x, std::span<double> y);
    void run_iterations(std::span<const double> x, std::span<double> y,
                        std::int64_t iterations);
    [[nodiscard]] const EngineInfo& info() const noexcept;

private:
    // Exactly one is non-null (which one mirrors a.index_width()).
    std::unique_ptr<KernelEngine> e32_;
    std::unique_ptr<KernelEngine64> e64_;
};

}  // namespace spmvcache
