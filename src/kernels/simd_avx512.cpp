// AVX-512F kernels (8 doubles per vector — the same 512-bit width as the
// A64FX's SVE implementation, so lane-group geometry matches the paper's
// target; 32-bit or 64-bit index gathers chosen per width at compile
// time). Compiled with -mavx512f; dispatched to only after a runtime
// __builtin_cpu_supports("avx512f") check.
#include "kernels/simd.hpp"

#if defined(SPMVCACHE_SIMD_AVX512)

#include <immintrin.h>

#include <cstring>

namespace spmvcache::simd::detail {

namespace {

__m256i load_idx8_32(const std::int32_t* p) noexcept {
    __m256i idx;
    std::memcpy(&idx, p, sizeof(idx));
    return idx;
}

__m512i load_idx8_64(const std::int64_t* p) noexcept {
    __m512i idx;
    std::memcpy(&idx, p, sizeof(idx));
    return idx;
}

__m512d load_pd8(const double* p) noexcept {
    __m512d v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/// Gathers x[colidx[0..7]] at either index width: the W32 form reads a
/// 256-bit index vector (half the index stream), the W64 form 512 bits.
/// The masked form with every lane enabled and a zeroed pass-through
/// source is the same instruction as the unmasked intrinsic, whose header
/// passes an undefined source register.
template <class Idx>
__m512d gather8(const double* x,
                const typename Idx::index_type* colidx) noexcept {
    const __m512d zero = _mm512_setzero_pd();
    if constexpr (sizeof(typename Idx::index_type) == 4)
        return _mm512_mask_i32gather_pd(zero, 0xFF, load_idx8_32(colidx), x,
                                        8);
    else
        return _mm512_mask_i64gather_pd(zero, 0xFF, load_idx8_64(colidx), x,
                                        8);
}

/// Horizontal sum of an 8-lane double vector, in _mm512_reduce_add_pd's
/// order (high half plus low half, then the 128-bit halves, then the two
/// lanes). Both 256-bit halves are extracted over a zeroed source: the
/// unmasked extract, and the header's cast built on it, pass an undefined
/// one.
double hsum8(__m512d v) noexcept {
    const __m256d half = _mm256_add_pd(_mm512_maskz_extractf64x4_pd(0xF, v, 1),
                                       _mm512_maskz_extractf64x4_pd(0xF, v, 0));
    const __m128d quarter = _mm_add_pd(_mm256_extractf128_pd(half, 1),
                                       _mm256_castpd256_pd128(half));
    return _mm_cvtsd_f64(
        _mm_add_sd(quarter, _mm_unpackhi_pd(quarter, quarter)));
}

}  // namespace

template <class Idx>
void csr_range_avx512(const typename Idx::offset_type* rowptr,
                      const typename Idx::index_type* colidx,
                      const double* values, const double* x, double* y,
                      std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t r = row_begin; r < row_end; ++r) {
        const auto begin = static_cast<std::int64_t>(rowptr[r]);
        const auto end = static_cast<std::int64_t>(rowptr[r + 1]);
        __m512d acc = _mm512_setzero_pd();
        std::int64_t i = begin;
        for (; i + 8 <= end; i += 8) {
            const __m512d xv = gather8<Idx>(x, colidx + i);
            acc = _mm512_fmadd_pd(load_pd8(values + i), xv, acc);
        }
        double sum = hsum8(acc);
        for (; i < end; ++i) sum += values[i] * x[colidx[i]];
        y[r] += sum;
    }
}

template <class Idx>
void sell_range_avx512(const double* values,
                       const typename Idx::index_type* colidx,
                       const std::int64_t* chunk_offset,
                       const std::int64_t* chunk_width,
                       const typename Idx::index_type* perm,
                       std::int64_t rows, std::int64_t chunk_height,
                       const double* x, double* y, std::int64_t chunk_begin,
                       std::int64_t chunk_end) {
    const std::int64_t c = chunk_height;
    for (std::int64_t k = chunk_begin; k < chunk_end; ++k) {
        const std::int64_t base = chunk_offset[k];
        const std::int64_t width = chunk_width[k];
        const std::int64_t rows_in_chunk =
            rows - k * c < c ? rows - k * c : c;
        std::int64_t v = 0;
        for (; v + 8 <= rows_in_chunk; v += 8) {
            __m512d acc = _mm512_setzero_pd();
            for (std::int64_t j = 0; j < width; ++j) {
                const std::int64_t slot = base + j * c + v;
                const __m512d xv = gather8<Idx>(x, colidx + slot);
                acc = _mm512_fmadd_pd(load_pd8(values + slot), xv, acc);
            }
            alignas(64) double lane[8];
            _mm512_store_pd(lane, acc);
            for (std::int64_t l = 0; l < 8; ++l)
                y[perm[k * c + v + l]] += lane[l];
        }
        for (; v < rows_in_chunk; ++v) {  // ragged tail of the last chunk
            double acc = 0.0;
            for (std::int64_t j = 0; j < width; ++j) {
                const std::int64_t slot = base + j * c + v;
                acc += values[slot] * x[colidx[slot]];
            }
            y[perm[k * c + v]] += acc;
        }
    }
}

template void csr_range_avx512<Idx32>(const Idx32::offset_type*,
                                      const Idx32::index_type*, const double*,
                                      const double*, double*, std::int64_t,
                                      std::int64_t);
template void csr_range_avx512<Idx64>(const Idx64::offset_type*,
                                      const Idx64::index_type*, const double*,
                                      const double*, double*, std::int64_t,
                                      std::int64_t);
template void sell_range_avx512<Idx32>(const double*, const Idx32::index_type*,
                                       const std::int64_t*,
                                       const std::int64_t*,
                                       const Idx32::index_type*, std::int64_t,
                                       std::int64_t, const double*, double*,
                                       std::int64_t, std::int64_t);
template void sell_range_avx512<Idx64>(const double*, const Idx64::index_type*,
                                       const std::int64_t*,
                                       const std::int64_t*,
                                       const Idx64::index_type*, std::int64_t,
                                       std::int64_t, const double*, double*,
                                       std::int64_t, std::int64_t);

}  // namespace spmvcache::simd::detail

#endif  // SPMVCACHE_SIMD_AVX512
