#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace pmpr::par {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  WaitGroup wg;
  wg.add(1);
  pool.submit([&] { ran.fetch_add(1); }, wg);
  pool.wait(wg);
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, RunsManyTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 5000;
  std::atomic<int> ran{0};
  WaitGroup wg;
  for (int i = 0; i < kTasks; ++i) {
    wg.add(1);
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); }, wg);
  }
  pool.wait(wg);
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  WaitGroup wg;
  for (int i = 0; i < 100; ++i) {
    wg.add(1);
    pool.submit([&] { ran.fetch_add(1); }, wg);
  }
  pool.wait(wg);
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, TasksCanSpawnSubtasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&] {
        for (int i = 0; i < 50; ++i) {
          wg.add(1);
          pool.submit([&] { ran.fetch_add(1); }, wg);
        }
        ran.fetch_add(1);
      },
      wg);
  pool.wait(wg);
  EXPECT_EQ(ran.load(), 51);
}

TEST(ThreadPool, NestedWaitDoesNotDeadlockOnOneThread) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  WaitGroup outer;
  outer.add(1);
  pool.submit(
      [&] {
        WaitGroup inner;
        for (int i = 0; i < 10; ++i) {
          inner.add(1);
          pool.submit([&] { ran.fetch_add(1); }, inner);
        }
        pool.wait(inner);  // must help, not deadlock
        ran.fetch_add(1);
      },
      outer);
  pool.wait(outer);
  EXPECT_EQ(ran.load(), 11);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(ThreadPool, MultipleWaitGroupsIndependent) {
  ThreadPool pool(2);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  WaitGroup wga;
  WaitGroup wgb;
  for (int i = 0; i < 100; ++i) {
    wga.add(1);
    pool.submit([&] { a.fetch_add(1); }, wga);
    wgb.add(1);
    pool.submit([&] { b.fetch_add(1); }, wgb);
  }
  pool.wait(wga);
  EXPECT_EQ(a.load(), 100);
  pool.wait(wgb);
  EXPECT_EQ(b.load(), 100);
}

TEST(ThreadPool, IntrospectionGaugesAreSane) {
  // The monitoring accessors (obs::Sampler's view of the pool) must be
  // callable from a non-worker thread while workers churn, and must report
  // in-range advisory values. Run under TSan via ci/sanitize.sh.
  ThreadPool pool(3);
  EXPECT_EQ(pool.approx_queued(0), 0u);
  EXPECT_EQ(pool.approx_queued(99), 0u);  // out of range -> 0
  EXPECT_LE(pool.parked_workers(), pool.num_threads());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t total = pool.approx_total_queued();
      std::size_t per = 0;
      for (std::size_t i = 0; i < pool.num_threads(); ++i) {
        per += pool.approx_queued(i);
      }
      // Deques drain concurrently, so per-deque sums may lag the total;
      // both must stay plausible (bounded by what was ever submitted).
      EXPECT_LE(per, 100000u);
      EXPECT_LE(total, 100000u);
      EXPECT_LE(pool.parked_workers(), pool.num_threads());
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });

  WaitGroup wg;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      wg.add(1);
      pool.submit(
          [] {
            volatile int x = 0;
            for (int k = 0; k < 100; ++k) x = x + k;
          },
          wg);
    }
    pool.wait(wg);
  }
  // Under a loaded machine the monitor may not get scheduled during the
  // brief churn; insist on one full observation before stopping it.
  while (reads.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  monitor.join();
  // Quiesced pool: nothing queued anywhere.
  EXPECT_EQ(pool.approx_total_queued(), 0u);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  WaitGroup wg;
  std::atomic<int> ran{0};
  wg.add(1);
  pool.submit([&] { ran.fetch_add(1); }, wg);
  pool.wait(wg);
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace pmpr::par
