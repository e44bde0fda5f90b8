// Packed trace: one uint64 per memory reference.
//
// The replay loop (model/replay.hpp) packs each segment's derived
// references into batches of bit-packed words that the reuse engines and
// the simulator consume. The encoding is lossless for every trace this
// repo derives:
//
//   bits [0, 48)   cache-line number   (48 bits — 2^48 lines of 256 B
//                                       is 64 PiB of addressed data)
//   bits [48, 59)  simulated thread    (11 bits, up to 2048 threads)
//   bits [59, 62)  DataObject          (3 bits, 5 objects)
//   bit  62        is_write
//   bit  63        is_prefetch
//
// The model rejects a run whose references fall outside those ranges
// (more than 2048 simulated threads, or 2^48 lines) at entry with a
// ValidationError. try_pack_spmv_trace_segment, which packs a whole
// segment at once for tests and benchmarks, returns typed errors instead
// of values for such a reference, an armed `trace.pack` fault or an
// allocation failure.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr_view.hpp"
#include "trace/layout.hpp"
#include "trace/memref.hpp"
#include "trace/sample.hpp"
#include "trace/spmv_trace.hpp"
#include "util/status.hpp"

namespace spmvcache {

inline constexpr int kPackedLineBits = 48;
inline constexpr int kPackedThreadBits = 11;
inline constexpr std::uint64_t kPackedLineMask =
    (std::uint64_t{1} << kPackedLineBits) - 1;
inline constexpr std::uint64_t kPackedThreadMask =
    (std::uint64_t{1} << kPackedThreadBits) - 1;
inline constexpr int kPackedObjectShift = kPackedLineBits + kPackedThreadBits;
inline constexpr int kPackedWriteShift = 62;
inline constexpr int kPackedPrefetchShift = 63;

/// True iff `ref` fits the packed encoding (line < 2^48, thread < 2^11).
[[nodiscard]] constexpr bool memref_packable(const MemRef& ref) noexcept {
    return ref.line <= kPackedLineMask && ref.thread <= kPackedThreadMask;
}

/// Packs one reference. Pre: memref_packable(ref).
[[nodiscard]] constexpr std::uint64_t pack_memref(const MemRef& ref) noexcept {
    return ref.line |
           (static_cast<std::uint64_t>(ref.thread) << kPackedLineBits) |
           (static_cast<std::uint64_t>(ref.object) << kPackedObjectShift) |
           (static_cast<std::uint64_t>(ref.is_write) << kPackedWriteShift) |
           (static_cast<std::uint64_t>(ref.is_prefetch)
            << kPackedPrefetchShift);
}

[[nodiscard]] constexpr std::uint64_t packed_line(std::uint64_t word) noexcept {
    return word & kPackedLineMask;
}
[[nodiscard]] constexpr std::uint32_t packed_thread(
    std::uint64_t word) noexcept {
    return static_cast<std::uint32_t>((word >> kPackedLineBits) &
                                      kPackedThreadMask);
}
[[nodiscard]] constexpr DataObject packed_object(std::uint64_t word) noexcept {
    return static_cast<DataObject>((word >> kPackedObjectShift) & 0x7u);
}
[[nodiscard]] constexpr bool packed_is_write(std::uint64_t word) noexcept {
    return ((word >> kPackedWriteShift) & 1u) != 0;
}
[[nodiscard]] constexpr bool packed_is_prefetch(std::uint64_t word) noexcept {
    return ((word >> kPackedPrefetchShift) & 1u) != 0;
}

/// Unpacks one word (exact inverse of pack_memref for packable refs).
[[nodiscard]] constexpr MemRef unpack_memref(std::uint64_t word) noexcept {
    return MemRef{packed_line(word), packed_thread(word), packed_object(word),
                  packed_is_write(word), packed_is_prefetch(word)};
}

/// Derives segment `segment`'s filtered trace once and packs it, reserving
/// from spmv_segment_lengths up front. `filter` applies SHARDS spatial
/// sampling at packing time: references whose line the filter rejects are
/// dropped before they ever enter the buffer, so a sampled replay scans
/// ~R·refs words instead of refs (the default exact filter keeps all).
/// Typed errors instead of values when a reference does not fit the
/// encoding (ValidationError), the packing allocation fails
/// (ResourceError), or the `trace.pack` fault point is armed.
template <class Idx>
[[nodiscard]] Result<std::vector<std::uint64_t>> try_pack_spmv_trace_segment(
    const BasicCsrView<Idx>& m, const SpmvLayout& layout,
    const TraceConfig& cfg, std::int64_t cores_per_numa,
    std::int64_t segment, const SampleFilter& filter = SampleFilter{});

extern template Result<std::vector<std::uint64_t>>
try_pack_spmv_trace_segment<Idx32>(const BasicCsrView<Idx32>&,
                                   const SpmvLayout&, const TraceConfig&,
                                   std::int64_t, std::int64_t,
                                   const SampleFilter&);
extern template Result<std::vector<std::uint64_t>>
try_pack_spmv_trace_segment<Idx64>(const BasicCsrView<Idx64>&,
                                   const SpmvLayout&, const TraceConfig&,
                                   std::int64_t, std::int64_t,
                                   const SampleFilter&);

}  // namespace spmvcache
