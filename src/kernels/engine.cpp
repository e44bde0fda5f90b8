#include "kernels/engine.hpp"

#include <algorithm>
#include <limits>

#include "sync/thread_pool.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace spmvcache {

namespace {

/// Prefetching scalar CSR row-range kernel. Lookahead is in nonzeros:
/// while accumulating element i, the x entry gathered through
/// colidx[i + d] plus the values/colidx stream positions i + d are
/// requested. Reads of colidx stay clamped inside [0, nnz); prefetches of
/// one-past-range addresses are harmless (prefetch never faults).
/// Distance 0 prefetches nothing: it runs the CsrScalar loop.
template <class Idx>
void csr_range_prefetch(const typename Idx::offset_type* rowptr,
                        const typename Idx::index_type* colidx,
                        const double* values, const double* x, double* y,
                        std::int64_t row_begin, std::int64_t row_end,
                        std::int64_t nnz, std::int64_t distance) {
    if (distance == 0) {
        simd::detail::csr_range_scalar<Idx>(rowptr, colidx, values, x, y,
                                            row_begin, row_end);
        return;
    }
    const std::int64_t last = nnz > 0 ? nnz - 1 : 0;
    for (std::int64_t r = row_begin; r < row_end; ++r) {
        double acc = y[r];  // same accumulation order as spmv_csr
        const auto begin = static_cast<std::int64_t>(rowptr[r]);
        const auto end = static_cast<std::int64_t>(rowptr[r + 1]);
        for (std::int64_t i = begin; i < end; ++i) {
            const std::int64_t ahead = i + distance < last ? i + distance
                                                           : last;
            __builtin_prefetch(x + colidx[ahead], 0, 0);
            __builtin_prefetch(values + ahead, 0, 0);
            __builtin_prefetch(colidx + ahead, 0, 0);
            acc += values[i] * x[colidx[i]];
        }
        y[r] = acc;
    }
}

/// SELL geometry: chunk 8 (one 512-bit vector of doubles), sigma 32
/// chunks.
constexpr std::int64_t kSellChunk = 8;
constexpr std::int64_t kSellSigma = 32 * kSellChunk;
/// Auto runs sell-simd while the sigma-sorted layout stores at most this
/// many elements per nonzero (DESIGN.md §5 decision 11 names the cells
/// that set it).
constexpr double kSellMaxPadding = 1.2;

std::int64_t resolve_threads(std::int64_t requested) {
    if (requested == 0)
        return static_cast<std::int64_t>(default_host_jobs());
    SPMV_EXPECTS(requested >= 1);
    return requested;
}

}  // namespace

const char* to_string(KernelVariant variant) noexcept {
    switch (variant) {
        case KernelVariant::CsrScalar: return "csr";
        case KernelVariant::CsrPrefetch: return "csr-prefetch";
        case KernelVariant::CsrSimd: return "csr-simd";
        case KernelVariant::SellScalar: return "sell";
        case KernelVariant::SellSimd: return "sell-simd";
        case KernelVariant::CsrMerge: return "merge";
        case KernelVariant::Auto: return "auto";
    }
    return "csr";
}

[[nodiscard]] Result<KernelVariant> parse_kernel_variant(
    std::string_view name) {
    if (name == "csr" || name == "scalar") return KernelVariant::CsrScalar;
    if (name == "csr-prefetch" || name == "prefetch")
        return KernelVariant::CsrPrefetch;
    if (name == "csr-simd" || name == "simd") return KernelVariant::CsrSimd;
    if (name == "sell") return KernelVariant::SellScalar;
    if (name == "sell-simd") return KernelVariant::SellSimd;
    if (name == "merge") return KernelVariant::CsrMerge;
    if (name == "auto") return KernelVariant::Auto;
    return Error(ErrorCode::ValidationError,
                 "unknown kernel variant '" + std::string(name) +
                     "' (csr, csr-prefetch, csr-simd, sell, sell-simd, "
                     "merge, auto)");
}

template <class Idx>
BasicKernelEngine<Idx>::BasicKernelEngine(const BasicCsrView<Idx>& a,
                                          const EngineOptions& options)
    : rows_(a.rows()), cols_(a.cols()), nnz_(a.nnz()),
      partition_(a, resolve_threads(options.threads),
                 PartitionPolicy::BalancedNonzeros) {
    info_.threads = partition_.threads();
    info_.imbalance = partition_.imbalance(a);
    if (info_.threads > 1)
        team_ = std::make_unique<WorkerTeam>(
            static_cast<std::size_t>(info_.threads));

    resolve_variant(a, options);

    switch (info_.variant) {
        case KernelVariant::SellScalar:
        case KernelVariant::SellSimd:
            setup_sell(a);
            break;
        case KernelVariant::CsrMerge:
            setup_csr(a);
            setup_merge(a);
            break;
        default:
            setup_csr(a);
            break;
    }
    if (info_.variant == KernelVariant::CsrPrefetch)
        calibrate_prefetch(options.prefetch_distance);
}

template <class Idx>
BasicKernelEngine<Idx>::~BasicKernelEngine() = default;

template <class Idx>
const BasicSellGeometry<Idx>& BasicKernelEngine<Idx>::sell_geometry() const {
    SPMV_EXPECTS(sell_.has_value());
    return *sell_;
}

template <class Idx>
void BasicKernelEngine<Idx>::resolve_variant(const BasicCsrView<Idx>& a,
                                             const EngineOptions& options) {
    simd_ = simd::best();
    KernelVariant variant = options.variant;
    const auto is_sell = [](KernelVariant v) {
        return v == KernelVariant::SellScalar || v == KernelVariant::SellSimd;
    };
    if (variant == KernelVariant::Auto) {
        // Documented in DESIGN.md §5: merge for row-imbalanced matrices,
        // SELL when the sigma-sorted layout the engine would build keeps
        // padding low, SIMD CSR otherwise, and the prefetch variant when
        // no vector ISA is compiled in (the gather latency is then the
        // only lever left).
        if (info_.threads > 1 && info_.imbalance > 1.5) {
            variant = KernelVariant::CsrMerge;
        } else if (simd_.isa != simd::Isa::Scalar) {
            sell_.emplace(a, kSellChunk, kSellSigma);
            variant = sell_->padding_factor() <= kSellMaxPadding
                          ? KernelVariant::SellSimd
                          : KernelVariant::CsrSimd;
        } else {
            variant = KernelVariant::CsrPrefetch;
        }
    } else if (is_sell(variant)) {
        sell_.emplace(a, kSellChunk, kSellSigma);
    }
    if (sell_) info_.sell_padding = sell_->padding_factor();
    if (!is_sell(variant)) sell_.reset();  // probed, then resolved to CSR
    info_.variant = variant;
    info_.isa = (variant == KernelVariant::CsrSimd ||
                 variant == KernelVariant::SellSimd)
                    ? simd_.isa
                    : simd::Isa::Scalar;
}

template <class Idx>
void BasicKernelEngine<Idx>::setup_csr(const BasicCsrView<Idx>& a) {
    // First-touch copies: worker t writes (and therefore faults in) the
    // rowptr/colidx/values slices of its own row range.
    rowptr_ = FirstTouchBuffer<offset_type>(
        static_cast<std::size_t>(rows_) + 1);
    colidx_ = FirstTouchBuffer<index_type>(static_cast<std::size_t>(nnz_));
    values_ = FirstTouchBuffer<double>(static_cast<std::size_t>(nnz_));
    const auto src_rowptr = a.rowptr();
    const auto src_colidx = a.colidx();
    const auto src_values = a.values();
    dispatch([&](std::size_t t) {
        const RowRange& range =
            partition_.range(static_cast<std::int64_t>(t));
        const auto lo = static_cast<std::int64_t>(
            src_rowptr[static_cast<std::size_t>(range.begin)]);
        const auto hi = static_cast<std::int64_t>(
            src_rowptr[static_cast<std::size_t>(range.end)]);
        for (std::int64_t r = range.begin; r < range.end; ++r)
            rowptr_.data()[r] = src_rowptr[static_cast<std::size_t>(r)];
        // Empty trailing ranges end at rows_ too; only the last range
        // writes the closing entry, so exactly one worker stores it.
        if (static_cast<std::int64_t>(t) + 1 == partition_.threads())
            rowptr_.data()[rows_] =
                src_rowptr[static_cast<std::size_t>(rows_)];
        for (std::int64_t i = lo; i < hi; ++i) {
            colidx_.data()[i] = src_colidx[static_cast<std::size_t>(i)];
            values_.data()[i] = src_values[static_cast<std::size_t>(i)];
        }
    });
}

template <class Idx>
void BasicKernelEngine<Idx>::setup_sell(const BasicCsrView<Idx>& a) {
    // Chunk ownership: contiguous chunk ranges balanced by padded
    // elements (the actual per-chunk work, padding included). A chunk
    // goes to worker t while its end offset stays within t's share.
    const auto offsets = sell_->chunk_offsets();  // chunks()+1 entries
    const std::int64_t chunks = sell_->chunks();
    const std::int64_t padded = sell_->padded_nnz();
    const std::int64_t threads = info_.threads;
    chunk_ranges_.assign(static_cast<std::size_t>(threads), RowRange{});
    std::int64_t k = 0;
    for (std::int64_t t = 0; t < threads; ++t) {
        const std::int64_t target = (t + 1) * padded / threads;
        const std::int64_t begin = k;
        while (k < chunks &&
               offsets[static_cast<std::size_t>(k) + 1] <= target)
            ++k;
        if (t == threads - 1) k = chunks;
        chunk_ranges_[static_cast<std::size_t>(t)] = RowRange{begin, k};
    }

    // Each worker fills, and so first touches, its own chunks of the
    // chunk-major arrays, padding slots included.
    sell_values_ = FirstTouchBuffer<double>(static_cast<std::size_t>(padded));
    sell_colidx_ =
        FirstTouchBuffer<index_type>(static_cast<std::size_t>(padded));
    dispatch([&](std::size_t t) {
        const RowRange& range = chunk_ranges_[t];
        sell_->fill(a, range.begin, range.end, sell_values_.span(),
                    sell_colidx_.span());
    });
}

template <class Idx>
void BasicKernelEngine<Idx>::setup_merge(const BasicCsrView<Idx>& a) {
    const std::int64_t pieces = info_.threads;
    const std::int64_t path_length = rows_ + nnz_;
    const std::int64_t chunk = (path_length + pieces - 1) / pieces;
    piece_begin_.resize(static_cast<std::size_t>(pieces));
    piece_end_.resize(static_cast<std::size_t>(pieces));
    carry_row_.assign(static_cast<std::size_t>(pieces), -1);
    carry_value_.assign(static_cast<std::size_t>(pieces), 0.0);
    for (std::int64_t p = 0; p < pieces; ++p) {
        const std::int64_t diag_begin = std::min(p * chunk, path_length);
        const std::int64_t diag_end =
            std::min(diag_begin + chunk, path_length);
        piece_begin_[static_cast<std::size_t>(p)] =
            merge_path_search(a, diag_begin);
        piece_end_[static_cast<std::size_t>(p)] =
            merge_path_search(a, diag_end);
    }
}

template <class Idx>
void BasicKernelEngine<Idx>::calibrate_prefetch(
    std::int64_t pinned_distance) {
    if (pinned_distance > 0) {
        info_.prefetch_distance = pinned_distance;
        return;
    }
    // Short single-threaded calibration over a bounded row sample: time
    // each candidate distance twice, keep the best minimum. Distance 0
    // (the CsrScalar loop, no prefetch) competes too, so calibration can
    // turn prefetch off on cache-resident matrices.
    static constexpr std::int64_t kCandidates[] = {0, 4, 8, 16, 32, 64};
    const auto rowptr = rowptr_.span();
    std::int64_t sample_rows = rows_;
    const std::int64_t nnz_budget = 1 << 21;
    if (nnz_ > nnz_budget) {
        sample_rows = 0;
        while (sample_rows < rows_ &&
               static_cast<std::int64_t>(
                   rowptr[static_cast<std::size_t>(sample_rows)]) <
                   nnz_budget)
            ++sample_rows;
    }
    if (sample_rows == 0 || nnz_ == 0) {
        info_.prefetch_distance = 16;
        return;
    }
    std::vector<double> x(static_cast<std::size_t>(cols_), 1.0);
    std::vector<double> y(static_cast<std::size_t>(sample_rows), 0.0);
    std::int64_t best = 16;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (const std::int64_t d : kCandidates) {
        double seconds = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 2; ++rep) {
            Timer timer;
            csr_range_prefetch<Idx>(rowptr_.data(), colidx_.data(),
                                    values_.data(), x.data(), y.data(), 0,
                                    sample_rows, nnz_, d);
            seconds = std::min(seconds, timer.seconds());
        }
        if (seconds < best_seconds) {
            best_seconds = seconds;
            best = d;
        }
    }
    info_.prefetch_distance = best;
}

template <class Idx>
void BasicKernelEngine<Idx>::dispatch(
    const std::function<void(std::size_t)>& body) {
    if (team_) {
        team_->run(body);
    } else {
        body(0);
    }
}

template <class Idx>
void BasicKernelEngine<Idx>::run(std::span<const double> x,
                                 std::span<double> y) {
    run_iterations(x, y, 1);
}

template <class Idx>
void BasicKernelEngine<Idx>::run_iterations(std::span<const double> x,
                                            std::span<double> y,
                                            std::int64_t iterations) {
    SPMV_EXPECTS(x.size() == static_cast<std::size_t>(cols_));
    SPMV_EXPECTS(y.size() == static_cast<std::size_t>(rows_));
    SPMV_EXPECTS(iterations >= 0);
    if (iterations == 0) return;
    fault::maybe_throw("kernel.exec");
    switch (info_.variant) {
        case KernelVariant::SellScalar:
        case KernelVariant::SellSimd:
            run_sell(x, y, iterations);
            return;
        case KernelVariant::CsrMerge:
            run_merge(x, y, iterations);
            return;
        default:
            run_csr(x, y, iterations);
            return;
    }
}

template <class Idx>
void BasicKernelEngine<Idx>::run_csr(std::span<const double> x,
                                     std::span<double> y,
                                     std::int64_t iterations) {
    const offset_type* rowptr = rowptr_.data();
    const index_type* colidx = colidx_.data();
    const double* values = values_.data();
    const double* xp = x.data();
    double* yp = y.data();
    const std::int64_t nnz = nnz_;
    const std::int64_t distance = info_.prefetch_distance;
    const bool prefetch = info_.variant == KernelVariant::CsrPrefetch;
    using CsrRangeFn = typename simd::WidthKernels<Idx>::CsrRangeFn;
    const CsrRangeFn kernel = info_.variant == KernelVariant::CsrSimd
                                  ? simd_.get<Idx>().csr
                                  : simd::scalar().get<Idx>().csr;
    // Row ranges are disjoint and x is read-only, so all iterations run
    // inside one team dispatch with no inter-iteration barrier.
    dispatch([&](std::size_t t) {
        const RowRange& range =
            partition_.range(static_cast<std::int64_t>(t));
        for (std::int64_t it = 0; it < iterations; ++it) {
            if (prefetch)
                csr_range_prefetch<Idx>(rowptr, colidx, values, xp, yp,
                                        range.begin, range.end, nnz,
                                        distance);
            else
                kernel(rowptr, colidx, values, xp, yp, range.begin,
                       range.end);
        }
    });
}

template <class Idx>
void BasicKernelEngine<Idx>::run_sell(std::span<const double> x,
                                      std::span<double> y,
                                      std::int64_t iterations) {
    using SellRangeFn = typename simd::WidthKernels<Idx>::SellRangeFn;
    const SellRangeFn kernel = info_.variant == KernelVariant::SellSimd
                                   ? simd_.get<Idx>().sell
                                   : simd::scalar().get<Idx>().sell;
    const double* values = sell_values_.data();
    const index_type* colidx = sell_colidx_.data();
    const std::int64_t* offsets = sell_->chunk_offsets().data();
    const std::int64_t* widths = sell_->chunk_widths().data();
    const index_type* perm = sell_->perm().data();
    const std::int64_t c = sell_->chunk_height();
    const double* xp = x.data();
    double* yp = y.data();
    // perm is a bijection, so chunk ranges write disjoint y entries; all
    // iterations run inside one dispatch, like the CSR family.
    dispatch([&](std::size_t t) {
        const RowRange& range = chunk_ranges_[t];
        for (std::int64_t it = 0; it < iterations; ++it)
            kernel(values, colidx, offsets, widths, perm, rows_, c, xp, yp,
                   range.begin, range.end);
    });
}

template <class Idx>
void BasicKernelEngine<Idx>::run_merge(std::span<const double> x,
                                       std::span<double> y,
                                       std::int64_t iterations) {
    const offset_type* rowptr = rowptr_.data();
    const index_type* colidx = colidx_.data();
    const double* values = values_.data();
    const double* xp = x.data();
    double* yp = y.data();
    const std::int64_t pieces = info_.threads;
    for (std::int64_t it = 0; it < iterations; ++it) {
        dispatch([&](std::size_t t) {
            MergeCoordinate cur = piece_begin_[t];
            const MergeCoordinate end = piece_end_[t];
            double acc = 0.0;
            carry_row_[t] = -1;
            carry_value_[t] = 0.0;
            while (cur.row < end.row) {
                for (; cur.nonzero <
                       static_cast<std::int64_t>(
                           rowptr[static_cast<std::size_t>(cur.row) + 1]);
                     ++cur.nonzero)
                    acc += values[cur.nonzero] * xp[colidx[cur.nonzero]];
                yp[cur.row] += acc;
                acc = 0.0;
                ++cur.row;
            }
            for (; cur.nonzero < end.nonzero; ++cur.nonzero)
                acc += values[cur.nonzero] * xp[colidx[cur.nonzero]];
            if (cur.row < rows_) {
                carry_row_[t] = cur.row;
                carry_value_[t] = acc;
            }
        });
        // Carry fix-up between iterations (sequential: one add per piece).
        for (std::int64_t p = 0; p < pieces; ++p) {
            if (carry_row_[static_cast<std::size_t>(p)] >= 0)
                yp[carry_row_[static_cast<std::size_t>(p)]] +=
                    carry_value_[static_cast<std::size_t>(p)];
        }
    }
}

template class BasicKernelEngine<Idx32>;
template class BasicKernelEngine<Idx64>;

AnyKernelEngine::AnyKernelEngine(const AnyCsrView& a,
                                 const EngineOptions& options) {
    if (a.index_width() == IndexWidth::W32)
        e32_ = std::make_unique<KernelEngine>(*a.as32(), options);
    else
        e64_ = std::make_unique<KernelEngine64>(*a.as64(), options);
}

void AnyKernelEngine::run(std::span<const double> x, std::span<double> y) {
    if (e32_)
        e32_->run(x, y);
    else
        e64_->run(x, y);
}

void AnyKernelEngine::run_iterations(std::span<const double> x,
                                     std::span<double> y,
                                     std::int64_t iterations) {
    if (e32_)
        e32_->run_iterations(x, y, iterations);
    else
        e64_->run_iterations(x, y, iterations);
}

const EngineInfo& AnyKernelEngine::info() const noexcept {
    return e32_ ? e32_->info() : e64_->info();
}

}  // namespace spmvcache
