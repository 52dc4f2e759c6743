#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace vire::support {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SingleThreadPoolRunsAllTasksInOrder) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  // One worker drains the queue FIFO, so no synchronization is needed
  // around `order` and the sequence is exactly 0..19.
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SingleThreadPoolPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("single"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillTheWorker) {
  ThreadPool pool(1);
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The packaged_task caught the exception; the worker must still be alive.
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(2);
  pool.stop();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, StopDrainsAlreadyQueuedTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  pool.stop();
  EXPECT_EQ(counter.load(), 200);
  for (auto& f : futures) f.get();  // all futures are ready, none broken
}

TEST(ThreadPool, StopIsIdempotent) {
  ThreadPool pool(2);
  pool.stop();
  pool.stop();  // second stop (and the destructor after it) must be a no-op
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ParallelFor, ComputesAllIndices) {
  ThreadPool pool(4);
  std::vector<int> out(1000, 0);
  parallel_for(0, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); },
               &pool);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; }, &pool);
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  parallel_for(10, 20, [&](std::size_t i) { sum += static_cast<long>(i); }, &pool);
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::logic_error("body failed");
                   },
                   &pool),
      std::logic_error);
}

TEST(ParallelForChunked, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  parallel_for_chunked(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, UsesGlobalPoolByDefault) {
  std::atomic<int> counter{0};
  parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ManySmallTasksDrainCompletely) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(8);
    for (int i = 0; i < 500; ++i) {
      // Futures intentionally discarded; destructor must still run tasks
      // already queued before joining.
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 500);
}

}  // namespace
}  // namespace vire::support
