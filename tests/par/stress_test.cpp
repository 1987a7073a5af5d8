// Stress tests for the work-stealing runtime: randomized fork graphs,
// concurrent external submitters, deep nesting, and repeated pool
// construction — the failure modes that deadlock or drop tasks in buggy
// schedulers.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "par/parallel_for.hpp"
#include "util/rng.hpp"

namespace pmpr::par {
namespace {

TEST(ParStress, RandomizedForkJoinGraph) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> work{0};

  // Each task randomly spawns 0-3 children, as one nested loop, up to a
  // depth limit; total task count is checked against a deterministic
  // replay of the same decisions.
  const ForOptions opts{Partitioner::kSimple, 1, &pool};
  std::function<void(std::uint64_t, int)> spawn = [&](std::uint64_t seed,
                                                      int depth) {
    work.fetch_add(1, std::memory_order_relaxed);
    if (depth >= 6) return;
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> child_seeds(rng.bounded(4));
    for (std::uint64_t& child_seed : child_seeds) child_seed = rng();
    parallel_for(0, child_seeds.size(), opts, [&](std::size_t c) {
      spawn(child_seeds[c], depth + 1);
    });
  };

  std::function<std::uint64_t(std::uint64_t, int)> count =
      [&](std::uint64_t seed, int depth) -> std::uint64_t {
    std::uint64_t total = 1;
    if (depth >= 6) return total;
    Xoshiro256 rng(seed);
    const auto children = rng.bounded(4);
    for (std::uint64_t c = 0; c < children; ++c) {
      total += count(rng(), depth + 1);
    }
    return total;
  };

  spawn(42, 0);
  EXPECT_EQ(work.load(), count(42, 0));
}

TEST(ParStress, ConcurrentExternalSubmitters) {
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 2000;
  std::atomic<int> done{0};

  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      WaitGroup wg;
      for (int i = 0; i < kTasksEach; ++i) {
        wg.add(1);
        pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); },
                    wg);
      }
      pool.wait(wg);
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(done.load(), kSubmitters * kTasksEach);
}

TEST(ParStress, DeeplyNestedParallelFor) {
  ThreadPool pool(2);
  ForOptions opts{Partitioner::kSimple, 1, &pool};
  std::atomic<int> leaves{0};
  parallel_for(0, 4, opts, [&](std::size_t) {
    parallel_for(0, 4, opts, [&](std::size_t) {
      parallel_for(0, 4, opts, [&](std::size_t) {
        parallel_for(0, 4, opts,
                     [&](std::size_t) { leaves.fetch_add(1); });
      });
    });
  });
  EXPECT_EQ(leaves.load(), 256);
}

TEST(ParStress, ManyShortLivedPools) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    WaitGroup wg;
    for (int i = 0; i < 50; ++i) {
      wg.add(1);
      pool.submit([&] { ran.fetch_add(1); }, wg);
    }
    pool.wait(wg);
    ASSERT_EQ(ran.load(), 50) << "round " << round;
  }
}

TEST(ParStress, UnevenWorkloadsBalance) {
  // One huge item among many tiny ones: every index must still run once
  // under every partitioner.
  ThreadPool pool(3);
  for (const auto partitioner :
       {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
    std::atomic<std::uint64_t> total{0};
    ForOptions opts{partitioner, 1, &pool};
    parallel_for(0, 200, opts, [&](std::size_t i) {
      std::uint64_t spin = i == 0 ? 20000 : 10;
      volatile std::uint64_t x = 0;
      for (std::uint64_t k = 0; k < spin; ++k) x = x + k;
      total.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), 200u) << to_string(partitioner);
  }
}

TEST(ParStress, WaitGroupReuseAcrossBatches) {
  ThreadPool pool(2);
  WaitGroup wg;
  std::atomic<int> ran{0};
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 100; ++i) {
      wg.add(1);
      pool.submit([&] { ran.fetch_add(1); }, wg);
    }
    pool.wait(wg);
    ASSERT_EQ(ran.load(), (batch + 1) * 100);
  }
}

}  // namespace
}  // namespace pmpr::par
