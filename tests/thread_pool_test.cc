#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace xontorank {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroAndOneIterationRunInline) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body must not run for n=0"; });
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(1, [caller](size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, MoreIterationsThanWorkersCompletes) {
  ThreadPool pool(1);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(64, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64u * 63u / 2u);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsDoNotInterfere) {
  ThreadPool pool(3);
  constexpr size_t kCallers = 6;
  constexpr size_t kN = 200;
  std::vector<std::atomic<size_t>> counts(kCallers);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &counts, c]() {
      pool.ParallelFor(kN, [&counts, c](size_t) { ++counts[c]; });
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) EXPECT_EQ(counts[c].load(), kN);
}

TEST(ThreadPoolTest, TenThousandIterationsEachRunExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, FourUserThreadsCallParallelForConcurrently) {
  ThreadPool pool(4);
  constexpr size_t kCallers = 4;
  constexpr size_t kN = 10000;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& caller_hits : hits) {
    caller_hits = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c]() {
      for (int round = 0; round < 3; ++round) {
        pool.ParallelFor(kN, [&hits, c](size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[c][i].load(), 3) << c;
  }
}

TEST(ThreadPoolTest, LongPostedTaskAtQueueFrontDoesNotStallParallelFor) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.Post([&]() {
    started = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The only worker is busy; its helper for this batch queues behind the
  // posted task, so the caller runs every iteration itself.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> on_caller{0};
  pool.ParallelFor(100, [&](size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
  });
  EXPECT_EQ(on_caller.load(), 100u);
  EXPECT_FALSE(release.load());
  release = true;
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
  std::atomic<int> ran{0};
  a.ParallelFor(8, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace xontorank
