// Fault-injection harness tests: arming semantics, deterministic triggers,
// and the named injection points threaded through the parser, the trace
// generator, and the reuse engines.
#include <gtest/gtest.h>

#include <sstream>

#include "reuse/capacity_stack.hpp"
#include "reuse/olken.hpp"
#include "sparse/gen/stencil.hpp"
#include "sparse/matrix_market.hpp"
#include "trace/layout.hpp"
#include "trace/spmv_trace.hpp"
#include "util/fault.hpp"

namespace spmvcache {
namespace {

class FaultTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultTest, DisarmedPointsNeverFire) {
    EXPECT_FALSE(fault::any_armed());
    EXPECT_FALSE(fault::should_fail("nonexistent.point"));
    EXPECT_TRUE(fault::maybe_fail("nonexistent.point").ok());
    EXPECT_NO_THROW(fault::maybe_throw("nonexistent.point"));
}

TEST_F(FaultTest, FailAfterCounterFiresOnNthHit) {
    fault::arm("t.counter", {.fail_after = 2});
    EXPECT_TRUE(fault::any_armed());
    EXPECT_FALSE(fault::should_fail("t.counter"));  // hit 0
    EXPECT_FALSE(fault::should_fail("t.counter"));  // hit 1
    EXPECT_TRUE(fault::should_fail("t.counter"));   // hit 2 fires
    // Armed with once=true (default): no further firing.
    EXPECT_FALSE(fault::should_fail("t.counter"));
    EXPECT_EQ(fault::hits("t.counter"), 3);
}

TEST_F(FaultTest, RepeatingFaultKeepsFiring) {
    fault::arm("t.repeat", {.fail_after = 0, .once = false});
    EXPECT_TRUE(fault::should_fail("t.repeat"));
    EXPECT_TRUE(fault::should_fail("t.repeat"));
    EXPECT_TRUE(fault::should_fail("t.repeat"));
}

TEST_F(FaultTest, SeededProbabilityIsDeterministic) {
    const auto run = [](std::uint64_t seed) {
        fault::arm("t.prob",
                   {.probability = 0.5, .seed = seed, .once = false});
        std::string pattern;
        for (int i = 0; i < 64; ++i)
            pattern += fault::should_fail("t.prob") ? '1' : '0';
        fault::disarm("t.prob");
        return pattern;
    };
    const std::string a = run(7);
    const std::string b = run(7);
    const std::string c = run(8);
    EXPECT_EQ(a, b);          // same seed, same firing pattern
    EXPECT_NE(a, c);          // different seed diverges
    EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 fires sometimes
    EXPECT_NE(a.find('0'), std::string::npos);  // ... but not always
}

TEST_F(FaultTest, MaybeFailReportsConfiguredCode) {
    fault::arm("t.code", {.code = ErrorCode::ResourceError});
    const Status s = fault::maybe_fail("t.code");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::ResourceError);
    EXPECT_NE(s.render().find("t.code"), std::string::npos);
}

TEST_F(FaultTest, MaybeThrowCarriesTypedError) {
    fault::arm("t.throw");
    try {
        fault::maybe_throw("t.throw");
        FAIL() << "armed point must throw";
    } catch (const fault::FaultInjectedError& e) {
        EXPECT_EQ(e.code(), ErrorCode::FaultInjected);
    }
}

TEST_F(FaultTest, ScopedFaultDisarmsOnExit) {
    {
        fault::ScopedFault f("t.scoped");
        EXPECT_TRUE(fault::any_armed());
    }
    EXPECT_FALSE(fault::any_armed());
    EXPECT_FALSE(fault::should_fail("t.scoped"));
}

TEST_F(FaultTest, ParserEntryPointProducesTypedError) {
    fault::ScopedFault f("mm.read_entry", {.fail_after = 1});
    std::stringstream ss(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 1 1.0\n"
        "2 2 2.0\n"
        "3 3 3.0\n");
    const Result<AnyCsrMatrix> r = try_read_matrix_market_any(ss);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::FaultInjected);
    // The error context names the entry that was being read.
    EXPECT_NE(r.error().render().find("entry 2"), std::string::npos);
}

TEST_F(FaultTest, ParserHeaderAndSizeLinePointsFire) {
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n";
    for (const char* point : {"mm.header", "mm.size_line"}) {
        fault::ScopedFault f(point);
        std::stringstream ss(text);
        const Result<AnyCsrMatrix> r = try_read_matrix_market_any(ss);
        ASSERT_FALSE(r.ok()) << point;
        EXPECT_EQ(r.code(), ErrorCode::FaultInjected) << point;
        EXPECT_NE(r.error().render().find(point), std::string::npos);
    }
}

TEST_F(FaultTest, ParserOpenPointFailsFileReads) {
    fault::ScopedFault f("mm.open");
    const Result<AnyCsrMatrix> r =
        try_read_matrix_market_any_file("/definitely/missing.mtx");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::FaultInjected);
}

TEST_F(FaultTest, TraceGeneratePointAborts) {
    const CsrMatrix m = gen::stencil_2d_5pt(8, 8);
    const SpmvLayout layout(m, 256);
    fault::ScopedFault f("trace.generate");
    EXPECT_THROW((void)collect_spmv_trace(m, layout, TraceConfig{}),
                 fault::FaultInjectedError);
}

/// `access` (one engine's per-access path) is a normal access while
/// `reuse.access` is disarmed, answering `first` for a line never seen,
/// and throws once it is armed.
template <class Access>
void expect_access_point_fires(Access access, std::uint64_t first) {
    EXPECT_EQ(access(1), first);  // disarmed: normal
    fault::ScopedFault f("reuse.access");
    EXPECT_THROW((void)access(2), fault::FaultInjectedError);
}

TEST_F(FaultTest, ReuseEngineAccessPointFires) {
    OlkenEngine olken;
    expect_access_point_fires(
        [&olken](std::uint64_t line) { return olken.access(line); },
        kInfiniteDistance);
    const std::uint64_t boundaries[] = {4};
    CapacityStackEngine stack(boundaries);
    expect_access_point_fires(
        [&stack](std::uint64_t line) { return stack.access(line); },
        stack.groups());  // off the stack
}

TEST_F(FaultTest, RearmingResetsCounters) {
    fault::arm("t.rearm", {.fail_after = 5});
    (void)fault::should_fail("t.rearm");
    (void)fault::should_fail("t.rearm");
    EXPECT_EQ(fault::hits("t.rearm"), 2);
    fault::arm("t.rearm", {.fail_after = 5});
    EXPECT_EQ(fault::hits("t.rearm"), 0);
}

}  // namespace
}  // namespace spmvcache
