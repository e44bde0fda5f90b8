// Packed trace encoding: lossless pack/unpack, elementwise equivalence
// with the streaming segment derivation and its typed-error paths; and the
// streamed replay loop built on it.
#include "trace/packed_trace.hpp"

#include <gtest/gtest.h>

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

TEST(ReplayLoop, ChunksConcatenateToThePackedSegment) {
    // One replay_segment call hands the consumer the segment's packed
    // words once, in trace order, in chunks of kReplayBatch words (the
    // last one shorter): one iteration, no segment-sized buffer.
    const CsrMatrix m = gen::banded(600, 9, 40, 7);
    ModelOptions o;
    o.threads = 4;  // one L2 segment
    const detail::ReplayPlan plan(m, o);
    const std::vector<std::uint64_t> packed =
        try_pack_spmv_trace_segment(m, plan.layout, plan.trace_cfg,
                                    o.machine.cores_per_numa, 0)
            .value();
    ASSERT_GT(packed.size(), 2 * detail::kReplayBatch);
    ASSERT_NE(packed.size() % detail::kReplayBatch, 0u);

    std::vector<std::uint64_t> replayed;
    std::vector<std::size_t> chunks;
    const ShardStats st = detail::replay_segment(
        plan, 0, [&](std::span<const std::uint64_t> words) {
            replayed.insert(replayed.end(), words.begin(), words.end());
            chunks.push_back(words.size());
        });
    EXPECT_EQ(replayed, packed);
    ASSERT_EQ(chunks.size(),
              (packed.size() + detail::kReplayBatch - 1) /
                  detail::kReplayBatch);
    for (std::size_t i = 0; i + 1 < chunks.size(); ++i)
        EXPECT_EQ(chunks[i], detail::kReplayBatch) << "chunk " << i;
    EXPECT_EQ(chunks.back(), packed.size() % detail::kReplayBatch);
    EXPECT_EQ(st.references, packed.size());
    EXPECT_EQ(st.sampled_refs, packed.size());
    EXPECT_TRUE(st.packed_replay);
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
