// Unit tests for src/sync: MCS lock mutual exclusion and fairness, thread
// pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "sync/mcs_lock.hpp"
#include "sync/thread_pool.hpp"

namespace spmvcache {
namespace {

TEST(McsLock, SingleThreadAcquireRelease) {
    McsLock lock;
    EXPECT_FALSE(lock.appears_held());
    {
        McsGuard guard(lock);
        EXPECT_TRUE(lock.appears_held());
    }
    EXPECT_FALSE(lock.appears_held());
}

TEST(McsLock, MutualExclusionUnderContention) {
    McsLock lock;
    std::int64_t counter = 0;  // deliberately unprotected by atomics
    constexpr int kThreads = 8;
    constexpr int kIncrements = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                McsGuard guard(lock);
                ++counter;
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(McsLock, CriticalSectionsDoNotOverlap) {
    McsLock lock;
    std::atomic<int> inside{0};
    std::atomic<bool> overlap{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) {
                McsGuard guard(lock);
                if (inside.fetch_add(1) != 0) overlap = true;
                inside.fetch_sub(1);
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_FALSE(overlap.load());
}

TEST(McsLock, HandsOffInFifoOrderWhenQueued) {
    // Queue three threads in a known order (each confirms it is enqueued
    // before the next starts), then check they acquire in that order.
    McsLock lock;
    std::vector<int> order;
    McsLock::QNode holder;
    lock.acquire(holder);  // hold so the others must queue

    std::atomic<int> queued{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&, t] {
            while (queued.load() != t) std::this_thread::yield();
            McsLock::QNode node;
            // After exchange inside acquire() the thread is visibly queued;
            // signal the next thread via a short delay heuristic: the
            // enqueue itself is the first step of acquire().
            std::thread signal([&] {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                queued.fetch_add(1);
            });
            lock.acquire(node);
            order.push_back(t);
            lock.release(node);
            signal.join();
        });
    }
    while (queued.load() != 3) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    lock.release(holder);
    for (auto& th : threads) th.join();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 2);
}

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
