// Packed trace encoding: lossless pack/unpack, elementwise equivalence
// with the streaming segment derivation and its typed-error paths; and the
// model's chunked replay loop built on it.
#include "trace/packed_trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "model/method_b.hpp"
#include "model/options.hpp"
#include "model/replay.hpp"
#include "sparse/gen/banded.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

TEST(PackedTrace, RoundTripsEveryFieldAtItsExtremes) {
    const std::vector<MemRef> refs = {
        MemRef{0, 0, DataObject::X, false, false},
        MemRef{kPackedLineMask, kPackedThreadMask, DataObject::RowPtr, true,
               true},
        MemRef{12345678, 47, DataObject::Values, false, true},
        MemRef{1, 2047, DataObject::ColIdx, false, false},
        MemRef{(std::uint64_t{1} << 47), 1024, DataObject::Y, true, false},
    };
    for (const MemRef& ref : refs) {
        ASSERT_TRUE(memref_packable(ref));
        const std::uint64_t word = pack_memref(ref);
        EXPECT_EQ(unpack_memref(word), ref);
        EXPECT_EQ(packed_line(word), ref.line);
        EXPECT_EQ(packed_thread(word), ref.thread);
        EXPECT_EQ(packed_object(word), ref.object);
        EXPECT_EQ(packed_is_write(word), ref.is_write);
        EXPECT_EQ(packed_is_prefetch(word), ref.is_prefetch);
    }
}

TEST(PackedTrace, RejectsOutOfRangeLineOrThread) {
    EXPECT_FALSE(memref_packable(
        MemRef{kPackedLineMask + 1, 0, DataObject::X, false, false}));
    EXPECT_FALSE(memref_packable(
        MemRef{0, kPackedThreadMask + 1, DataObject::X, false, false}));
}

TEST(PackedTrace, SegmentPackMatchesStreamingDerivationElementwise) {
    const CsrMatrix m = gen::banded(600, 9, 40, 7);
    const SpmvLayout layout(m, 256);
    TraceConfig cfg;
    cfg.threads = 8;
    const std::int64_t cores_per_numa = 2;
    const auto lengths = spmv_segment_lengths(m, cfg, cores_per_numa);

    for (std::int64_t s = 0;
         s < trace_segment_count(cfg.threads, cores_per_numa); ++s) {
        const auto streamed =
            collect_spmv_trace_segment(m, layout, cfg, cores_per_numa, s);
        const auto packed =
            try_pack_spmv_trace_segment(m, layout, cfg, cores_per_numa, s);
        ASSERT_TRUE(packed.ok()) << packed.error().render();
        const auto& words = packed.value();
        ASSERT_EQ(words.size(), streamed.size());
        EXPECT_EQ(words.size(), lengths[static_cast<std::size_t>(s)]);
        for (std::size_t i = 0; i < words.size(); ++i)
            ASSERT_EQ(unpack_memref(words[i]), streamed[i]) << "ref " << i;
    }
}

TEST(PackedTrace, KeepsSoftwarePrefetchHintsWithTheFlagSet) {
    const CsrMatrix m = gen::banded(100, 6, 20, 3);
    const SpmvLayout layout(m, 256);
    TraceConfig cfg;
    cfg.threads = 2;
    cfg.x_prefetch_distance = 4;
    const auto packed =
        try_pack_spmv_trace_segment(m, layout, cfg, /*cores_per_numa=*/2,
                                    /*segment=*/0);
    ASSERT_TRUE(packed.ok()) << packed.error().render();
    const auto streamed = collect_spmv_trace_segment(m, layout, cfg, 2, 0);
    // Prefetch hints inflate the stream beyond the demand-only length
    // estimate; the packed buffer must still carry every one of them.
    ASSERT_EQ(packed.value().size(), streamed.size());
    std::size_t hints = 0;
    for (const std::uint64_t word : packed.value())
        if (packed_is_prefetch(word)) ++hints;
    EXPECT_GT(hints, 0u);
}

TEST(PackedTrace, ArmedFaultYieldsTypedErrorNotAValue) {
    const CsrMatrix m = gen::banded(50, 4, 10, 1);
    const SpmvLayout layout(m, 256);
    fault::ScopedFault f("trace.pack");
    const auto packed = try_pack_spmv_trace_segment(
        m, layout, TraceConfig{1}, /*cores_per_numa=*/12, /*segment=*/0);
    ASSERT_FALSE(packed.ok());
    EXPECT_EQ(packed.error().code, ErrorCode::FaultInjected);
}

TEST(ReplayBudget, ExplicitValuesPassThroughAndAutoIsClamped) {
    EXPECT_EQ(detail::resolve_trace_buffer_bytes(0), 0u);
    EXPECT_EQ(detail::resolve_trace_buffer_bytes(12345), 12345u);
    const std::uint64_t resolved =
        detail::resolve_trace_buffer_bytes(kTraceBufferAuto);
    EXPECT_GE(resolved, std::uint64_t{64} << 20);
    EXPECT_LE(resolved, std::uint64_t{8} << 30);
}

/// What one replay_segment call hands its consumer, per pass: the words
/// in order and the chunk sizes. Every chunking must concatenate to
/// try_pack_spmv_trace_segment's words in both passes.
struct Replayed {
    ShardStats stats;
    std::vector<std::uint64_t> packed, warm, counted;
    std::vector<std::size_t> warm_chunks, counted_chunks;
};

Replayed replay_banded(std::uint64_t budget_bytes, bool pack_fault = false) {
    const CsrMatrix m = gen::banded(600, 9, 40, 7);
    ModelOptions o;
    o.threads = 4;  // one L2 segment
    o.jobs = 1;     // the shard owns the whole budget
    o.trace_buffer_bytes = budget_bytes;
    const detail::ReplayPlan plan(m, o);
    Replayed r;
    r.packed = try_pack_spmv_trace_segment(m, plan.layout, plan.trace_cfg,
                                           o.machine.cores_per_numa, 0)
                   .value();
    std::optional<fault::ScopedFault> armed;
    if (pack_fault)
        armed.emplace("trace.pack", fault::FaultSpec{.once = false});
    r.stats = detail::replay_segment(
        plan, 0, [&r](std::span<const std::uint64_t> words, bool counting) {
            auto& pass = counting ? r.counted : r.warm;
            pass.insert(pass.end(), words.begin(), words.end());
            (counting ? r.counted_chunks : r.warm_chunks)
                .push_back(words.size());
        });
    EXPECT_EQ(r.warm, r.packed);
    EXPECT_EQ(r.counted, r.packed);
    EXPECT_EQ(r.stats.references, r.packed.size());
    EXPECT_EQ(r.stats.sampled_refs, r.packed.size());
    return r;
}

TEST(ReplayLoop, ChunksConcatenateToThePackedSegment) {
    const std::size_t chunk = 1500;  // splits the segment unevenly
    const Replayed r = replay_banded(chunk * 8);
    EXPECT_FALSE(r.stats.packed_replay);
    EXPECT_EQ(r.warm_chunks, r.counted_chunks);
    ASSERT_GT(r.counted_chunks.size(), 2u);
    for (std::size_t i = 0; i + 1 < r.counted_chunks.size(); ++i)
        EXPECT_EQ(r.counted_chunks[i], chunk) << "chunk " << i;
    EXPECT_LT(r.counted_chunks.back(), chunk);
}

TEST(ReplayLoop, BudgetOfExactlyTheSegmentDerivesOnce) {
    const std::size_t refs = replay_banded(kTraceBufferAuto).packed.size();
    const Replayed r = replay_banded(refs * 8);
    EXPECT_TRUE(r.stats.packed_replay);
    EXPECT_EQ(r.counted_chunks, std::vector<std::size_t>{refs});
}

TEST(ReplayLoop, OneWordLessDerivesOncePerPass) {
    const std::size_t refs = replay_banded(kTraceBufferAuto).packed.size();
    const Replayed r = replay_banded(refs * 8 - 8);
    EXPECT_FALSE(r.stats.packed_replay);
    EXPECT_EQ(r.warm_chunks, (std::vector<std::size_t>{refs - 1, 1}));
    EXPECT_EQ(r.counted_chunks, (std::vector<std::size_t>{refs - 1, 1}));
}

TEST(ReplayLoop, ZeroTinyBudgetAndPackFaultUseTheSmallestChunk) {
    for (const Replayed& r :
         {replay_banded(0), replay_banded(8),
          replay_banded(kTraceBufferAuto, /*pack_fault=*/true)}) {
        EXPECT_FALSE(r.stats.packed_replay);
        EXPECT_EQ(r.counted_chunks.front(), detail::kReplayBatch);
    }
}

TEST(ReplayLoop, UnpackableRunFailsAtEntry) {
    // Thread ids above 2047 do not fit the packed encoding; no CLI or
    // serve path can ask for them (threads <= machine.cores = 48).
    const CsrMatrix m = gen::banded(50, 4, 10, 1);
    ModelOptions o;
    o.machine.cores = 4096;
    o.threads = 2049;
    try {
        (void)run_method_b(m, o);
        ADD_FAILURE() << "expected a ValidationError";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.error().code, ErrorCode::ValidationError);
    }
}

}  // namespace
}  // namespace spmvcache
