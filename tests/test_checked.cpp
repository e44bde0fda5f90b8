#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "model/classify.hpp"
#include "trace/spmv_trace.hpp"
#include "util/checked.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/status.hpp"

namespace spmvcache {
namespace {

constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

TEST(CheckedAdd, SignedBoundary) {
    std::int64_t out = 0;
    EXPECT_TRUE(checked_add<std::int64_t>(kI64Max - 1, 1, out));
    EXPECT_EQ(out, kI64Max);
    EXPECT_FALSE(checked_add<std::int64_t>(kI64Max, 1, out));
    EXPECT_FALSE(checked_add<std::int64_t>(kI64Min, -1, out));
    EXPECT_TRUE(checked_add<std::int64_t>(kI64Min, kI64Max, out));
    EXPECT_EQ(out, -1);
}

TEST(CheckedAdd, UnsignedBoundary) {
    std::uint64_t out = 0;
    EXPECT_TRUE(checked_add<std::uint64_t>(kU64Max - 1, 1, out));
    EXPECT_EQ(out, kU64Max);
    EXPECT_FALSE(checked_add<std::uint64_t>(kU64Max, 1, out));
    std::size_t sz = 0;
    EXPECT_FALSE(checked_add<std::size_t>(SIZE_MAX, 1, sz));
}

TEST(CheckedSub, UnsignedUnderflow) {
    std::uint64_t out = 0;
    EXPECT_TRUE(checked_sub<std::uint64_t>(1, 1, out));
    EXPECT_EQ(out, 0u);
    EXPECT_FALSE(checked_sub<std::uint64_t>(0, 1, out));
}

TEST(CheckedMul, SignedBoundary) {
    std::int64_t out = 0;
    // 2^31 * 2^31 = 2^62 fits; 2^32 * 2^31 = 2^63 does not.
    EXPECT_TRUE(checked_mul<std::int64_t>(std::int64_t{1} << 31,
                                          std::int64_t{1} << 31, out));
    EXPECT_EQ(out, std::int64_t{1} << 62);
    EXPECT_FALSE(checked_mul<std::int64_t>(std::int64_t{1} << 32,
                                           std::int64_t{1} << 31, out));
    EXPECT_FALSE(checked_mul<std::int64_t>(kI64Max, 2, out));
    EXPECT_TRUE(checked_mul<std::int64_t>(kI64Max, 1, out));
    EXPECT_EQ(out, kI64Max);
}

TEST(CheckedMul, UnsignedBoundary) {
    std::uint64_t out = 0;
    EXPECT_TRUE(checked_mul<std::uint64_t>(kU64Max / 2, 2, out));
    EXPECT_EQ(out, kU64Max - 1);
    EXPECT_FALSE(checked_mul<std::uint64_t>(kU64Max / 2 + 1, 2, out));
}

TEST(CheckedNarrow, NegativeToUnsignedFails) {
    std::uint32_t u32 = 0;
    EXPECT_FALSE(checked_narrow(std::int64_t{-1}, u32));
    std::uint64_t u64 = 0;
    EXPECT_FALSE(checked_narrow(std::int64_t{-1}, u64));
    EXPECT_TRUE(checked_narrow(std::int64_t{0}, u64));
    EXPECT_EQ(u64, 0u);
}

TEST(CheckedNarrow, WidthBoundaries) {
    std::int32_t i32 = 0;
    EXPECT_TRUE(checked_narrow(std::int64_t{2147483647}, i32));
    EXPECT_EQ(i32, 2147483647);
    EXPECT_FALSE(checked_narrow(std::int64_t{2147483648}, i32));
    EXPECT_TRUE(checked_narrow(std::int64_t{-2147483648}, i32));
    EXPECT_FALSE(checked_narrow(std::int64_t{-2147483649}, i32));

    std::int64_t i64 = 0;
    EXPECT_FALSE(checked_narrow(kU64Max, i64));
    EXPECT_TRUE(checked_narrow(kU64Max / 2, i64));
    EXPECT_EQ(i64, kI64Max);
}

TEST(CheckedResult, AddOverflowIsTypedError) {
    Result<std::int64_t> ok = checked_add<std::int64_t>(20, 22);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);

    Result<std::int64_t> bad = checked_add<std::int64_t>(kI64Max, 1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::OverflowError);
    EXPECT_NE(bad.error().message.find("overflows"), std::string::npos);
}

TEST(CheckedResult, MulAndSubOverflow) {
    EXPECT_EQ(checked_mul<std::int64_t>(kI64Max, 2).code(),
              ErrorCode::OverflowError);
    EXPECT_EQ(checked_sub<std::uint64_t>(0, 1).code(),
              ErrorCode::OverflowError);
    EXPECT_EQ(checked_mul<std::uint64_t>(3, 4).value(), 12u);
}

TEST(CheckedResult, NarrowReportsRange) {
    Result<std::uint32_t> bad = checked_narrow<std::uint32_t>(std::int64_t{-5});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::OverflowError);
    EXPECT_NE(bad.error().message.find("does not fit"), std::string::npos);
    EXPECT_EQ(checked_narrow<std::uint32_t>(std::int64_t{7}).value(), 7u);
}

TEST(CheckedToDouble, ExactnessBoundary) {
    EXPECT_TRUE(exactly_representable(kMaxExactDouble));
    EXPECT_TRUE(exactly_representable(-kMaxExactDouble));
    EXPECT_FALSE(exactly_representable(kMaxExactDouble + 1));
    EXPECT_FALSE(exactly_representable(kI64Max));
    EXPECT_EQ(checked_to_double(1 << 20), 1048576.0);
    EXPECT_EQ(checked_to_double(kMaxExactDouble),
              9007199254740992.0);
    // 2^53 + 1 would round to 2^53.
    EXPECT_THROW((void)checked_to_double(kMaxExactDouble + 1),
                 ContractViolation);
}

// A violated contract stops the run: the caller gets ContractViolation
// naming the expression, never the wrapped value.
TEST(Contracts, OverflowingCheckedMulThrows) {
    std::int64_t out = 0;
    try {
        SPMV_EXPECTS(checked_mul<std::int64_t>(kI64Max, 2, out));
        FAIL() << "expected ContractViolation";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("checked_mul"),
                  std::string::npos);
    }
}

// x's byte count (8 * cols) wraps to 800 bytes, which would put a matrix
// with an exabyte-scale x vector into class (2).
TEST(Contracts, ClassifyRejectsWrappedByteCount) {
    MatrixStats stats;
    stats.rows = 1000;
    stats.cols = (std::int64_t{1} << 61) + 100;
    stats.nnz = 1000;
    stats.working_set_bytes = kU64Max;
    const std::uint64_t l2 = std::uint64_t{8} << 20;
    EXPECT_THROW((void)classify(stats, l2, l2), ContractViolation);
}

// Call sites put the checked arithmetic itself inside the macro, so the
// condition is evaluated whether or not it holds.
TEST(Contracts, ConditionIsAlwaysEvaluated) {
    std::int64_t out = 0;
    SPMV_EXPECTS(checked_add<std::int64_t>(40, 2, out));
    EXPECT_EQ(out, 42);
}

TEST(ParseInt, StrictWholeString) {
    EXPECT_EQ(parse_int("42").value(), 42);
    EXPECT_EQ(parse_int("+7").value(), 7);
    EXPECT_EQ(parse_int("-9").value(), -9);
    EXPECT_EQ(parse_int(" 13\t").value(), 13);
    EXPECT_EQ(parse_int("12abc").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_int("").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_int("1e3").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_int("9223372036854775807").value(), kI64Max);
    EXPECT_EQ(parse_int("9223372036854775808").code(),
              ErrorCode::OverflowError);
}

TEST(ParseDouble, StrictWholeString) {
    EXPECT_EQ(parse_double("2.5").value(), 2.5);
    EXPECT_EQ(parse_double("1e3").value(), 1000.0);
    EXPECT_EQ(parse_double("nope").code(), ErrorCode::ParseError);
    EXPECT_EQ(parse_double("2.5x").code(), ErrorCode::ParseError);
}

TEST(CliParser, GarbageNumericOptionThrowsTyped) {
    const char* argv[] = {"prog", "--threads", "banana", "--alpha", "0.5"};
    CliParser cli(5, argv);
    EXPECT_EQ(cli.get_double("alpha", 0.0), 0.5);
    try {
        (void)cli.get_int("threads", 1);
        FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    }
}

TEST(CliParser, OutOfRangeIntegerOptionIsAParseError) {
    // parse_int calls it an OverflowError; as a flag value it is one the
    // CLI cannot read, which it answers as a usage error.
    const char* argv[] = {"prog", "--threads", "99999999999999999999"};
    CliParser cli(3, argv);
    try {
        (void)cli.get_int("threads", 1);
        FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_NE(std::string(e.what()).find("out of int64 range"),
                  std::string::npos);
    }
}

TEST(TraceLength, CheckedFlavourMatchesConstexpr) {
    Result<std::uint64_t> n = try_spmv_trace_length(100, 500);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), spmv_trace_length(100, 500));
}

TEST(TraceLength, RejectsNegativeAndOverflow) {
    EXPECT_EQ(try_spmv_trace_length(-1, 10).code(),
              ErrorCode::ValidationError);
    EXPECT_EQ(try_spmv_trace_length(10, -1).code(),
              ErrorCode::ValidationError);
    EXPECT_EQ(try_spmv_trace_length(kI64Max, kI64Max).code(),
              ErrorCode::OverflowError);
}

}  // namespace
}  // namespace spmvcache
