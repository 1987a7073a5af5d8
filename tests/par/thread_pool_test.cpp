#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
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
