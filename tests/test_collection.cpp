// Tests for the collection driver: ordering, error isolation, parallel
// execution across host threads.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/collection.hpp"
#include "sparse/gen/stencil.hpp"

namespace spmvcache {
namespace {

std::vector<gen::MatrixSpec> tiny_suite(int n) {
    std::vector<gen::MatrixSpec> suite;
    for (int i = 0; i < n; ++i) {
        std::string name = "m";
        name += std::to_string(i);
        suite.push_back(gen::MatrixSpec{
            name, "stencil", [i] { return gen::stencil_2d_5pt(4 + i, 4); }});
    }
    return suite;
}

TEST(Collection, PreservesSuiteOrder) {
    const auto suite = tiny_suite(6);
    const std::function<std::int64_t(const std::string&, const CsrMatrix&)>
        fn = [](const std::string&, const CsrMatrix& m) { return m.rows(); };
    const auto outcomes = run_collection<std::int64_t>(suite, fn);
    ASSERT_EQ(outcomes.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].name,
                  suite[static_cast<std::size_t>(i)].name);
        EXPECT_TRUE(outcomes[static_cast<std::size_t>(i)].ok);
        EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].result,
                  (4 + i) * 4);
    }
}

TEST(Collection, IsolatesThrowingExperiments) {
    const auto suite = tiny_suite(4);
    const std::function<int(const std::string&, const CsrMatrix&)> fn =
        [](const std::string& name, const CsrMatrix&) -> int {
        if (name == "m2") throw std::runtime_error("boom");
        return 1;
    };
    const auto outcomes = run_collection<int>(suite, fn);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[1].ok);
    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_EQ(outcomes[2].error, "boom");
    EXPECT_TRUE(outcomes[3].ok);
}

TEST(Collection, IsolatesThrowingFactories) {
    std::vector<gen::MatrixSpec> suite = tiny_suite(2);
    suite.push_back(gen::MatrixSpec{
        "bad", "none",
        []() -> CsrMatrix { throw std::runtime_error("factory failed"); }});
    const std::function<int(const std::string&, const CsrMatrix&)> fn =
        [](const std::string&, const CsrMatrix&) { return 0; };
    const auto outcomes = run_collection<int>(suite, fn);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[2].ok);
    EXPECT_EQ(outcomes[2].error, "factory failed");
}

TEST(Collection, ParallelHostThreadsProduceSameResults) {
    const auto suite = tiny_suite(9);
    const std::function<std::int64_t(const std::string&, const CsrMatrix&)>
        fn = [](const std::string&, const CsrMatrix& m) { return m.nnz(); };
    const auto sequential = run_collection<std::int64_t>(suite, fn);
    CollectionOptions parallel_opts;
    parallel_opts.host_threads = 4;
    const auto parallel =
        run_collection<std::int64_t>(suite, fn, parallel_opts);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t i = 0; i < sequential.size(); ++i) {
        EXPECT_EQ(sequential[i].name, parallel[i].name);
        EXPECT_EQ(sequential[i].result, parallel[i].result);
    }
}

TEST(Collection, EmptySuite) {
    const std::function<int(const std::string&, const CsrMatrix&)> fn =
        [](const std::string&, const CsrMatrix&) { return 0; };
    const auto outcomes = run_collection<int>({}, fn);
    EXPECT_TRUE(outcomes.empty());
}

}  // namespace
}  // namespace spmvcache
