// AVX2 + FMA kernels (4 doubles per vector; 32-bit or 64-bit index
// gathers chosen per width at compile time). Compiled with -mavx2 -mfma;
// only dispatched to after a runtime __builtin_cpu_supports check, so this
// TU must not be entered on older hardware. Unaligned vector loads go
// through std::memcpy, which the compiler folds into vmovdqu/vmovupd —
// this avoids reinterpret_cast and the alignment-increasing casts
// -Wcast-align rejects.
#include "kernels/simd.hpp"

#if defined(SPMVCACHE_SIMD_AVX2)

#include <immintrin.h>

#include <cstring>

namespace spmvcache::simd::detail {

namespace {

/// Horizontal sum of a 4-lane double vector.
double hsum4(__m256d v) noexcept {
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(lo, lo);
    return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

__m128i load_idx4_32(const std::int32_t* p) noexcept {
    __m128i idx;
    std::memcpy(&idx, p, sizeof(idx));
    return idx;
}

__m256i load_idx4_64(const std::int64_t* p) noexcept {
    __m256i idx;
    std::memcpy(&idx, p, sizeof(idx));
    return idx;
}

__m256d load_pd4(const double* p) noexcept {
    __m256d v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/// Gathers x[colidx[0..3]] at either index width: vgatherdpd for the
/// 4-byte indices (half the index stream of the wide form), vgatherqpd
/// for the 8-byte fallback. The masked form with every lane enabled and a
/// zeroed pass-through source is the same instruction as the unmasked
/// intrinsic, whose header passes an undefined source register.
template <class Idx>
__m256d gather4(const double* x,
                const typename Idx::index_type* colidx) noexcept {
    const __m256d zero = _mm256_setzero_pd();
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    if constexpr (sizeof(typename Idx::index_type) == 4)
        return _mm256_mask_i32gather_pd(zero, x, load_idx4_32(colidx), all,
                                        8);
    else
        return _mm256_mask_i64gather_pd(zero, x, load_idx4_64(colidx), all,
                                        8);
}

}  // namespace

template <class Idx>
void csr_range_avx2(const typename Idx::offset_type* rowptr,
                    const typename Idx::index_type* colidx,
                    const double* values, const double* x, double* y,
                    std::int64_t row_begin, std::int64_t row_end) {
    for (std::int64_t r = row_begin; r < row_end; ++r) {
        const auto begin = static_cast<std::int64_t>(rowptr[r]);
        const auto end = static_cast<std::int64_t>(rowptr[r + 1]);
        __m256d acc = _mm256_setzero_pd();
        std::int64_t i = begin;
        for (; i + 4 <= end; i += 4) {
            const __m256d xv = gather4<Idx>(x, colidx + i);
            acc = _mm256_fmadd_pd(load_pd4(values + i), xv, acc);
        }
        double sum = hsum4(acc);
        for (; i < end; ++i) sum += values[i] * x[colidx[i]];
        y[r] += sum;
    }
}

template <class Idx>
void sell_range_avx2(const double* values,
                     const typename Idx::index_type* colidx,
                     const std::int64_t* chunk_offset,
                     const std::int64_t* chunk_width,
                     const typename Idx::index_type* perm, std::int64_t rows,
                     std::int64_t chunk_height, const double* x, double* y,
                     std::int64_t chunk_begin, std::int64_t chunk_end) {
    const std::int64_t c = chunk_height;
    for (std::int64_t k = chunk_begin; k < chunk_end; ++k) {
        const std::int64_t base = chunk_offset[k];
        const std::int64_t width = chunk_width[k];
        const std::int64_t rows_in_chunk =
            rows - k * c < c ? rows - k * c : c;
        // Vector lane groups of 4 sorted rows, column-major over the chunk;
        // padding slots (value 0, column 0) make the j loop branch-free.
        std::int64_t v = 0;
        for (; v + 4 <= rows_in_chunk; v += 4) {
            __m256d acc = _mm256_setzero_pd();
            for (std::int64_t j = 0; j < width; ++j) {
                const std::int64_t slot = base + j * c + v;
                const __m256d xv = gather4<Idx>(x, colidx + slot);
                acc = _mm256_fmadd_pd(load_pd4(values + slot), xv, acc);
            }
            alignas(32) double lane[4];
            _mm256_store_pd(lane, acc);
            for (std::int64_t l = 0; l < 4; ++l)
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

template void csr_range_avx2<Idx32>(const Idx32::offset_type*,
                                    const Idx32::index_type*, const double*,
                                    const double*, double*, std::int64_t,
                                    std::int64_t);
template void csr_range_avx2<Idx64>(const Idx64::offset_type*,
                                    const Idx64::index_type*, const double*,
                                    const double*, double*, std::int64_t,
                                    std::int64_t);
template void sell_range_avx2<Idx32>(const double*, const Idx32::index_type*,
                                     const std::int64_t*, const std::int64_t*,
                                     const Idx32::index_type*, std::int64_t,
                                     std::int64_t, const double*, double*,
                                     std::int64_t, std::int64_t);
template void sell_range_avx2<Idx64>(const double*, const Idx64::index_type*,
                                     const std::int64_t*, const std::int64_t*,
                                     const Idx64::index_type*, std::int64_t,
                                     std::int64_t, const double*, double*,
                                     std::int64_t, std::int64_t);

}  // namespace spmvcache::simd::detail

#endif  // SPMVCACHE_SIMD_AVX2
