// Unit tests for src/sync: thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sync/thread_pool.hpp"

namespace spmvcache {
namespace {

TEST(ThreadPool, RunsAllTasks) {
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i) pool.submit([&] { done.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ParallelForCoversIndexSpace) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleReturnsWithNoTasks) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

}  // namespace
}  // namespace spmvcache
