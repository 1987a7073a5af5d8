#include "par/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace pmpr::par {
namespace {

/// Parameterized over (partitioner, grain): every combination must execute
/// each index exactly once — the core scheduling invariant.
class ParallelForProperty
    : public ::testing::TestWithParam<std::tuple<Partitioner, std::size_t>> {};

TEST_P(ParallelForProperty, EveryIndexExactlyOnce) {
  const auto [partitioner, grain] = GetParam();
  ThreadPool pool(3);
  constexpr std::size_t kN = 10007;  // prime: exercises ragged chunking
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ForOptions opts{partitioner, grain, &pool};
  parallel_for(0, kN, opts,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForProperty, RangeChunksAreDisjointAndCover) {
  const auto [partitioner, grain] = GetParam();
  ThreadPool pool(3);
  constexpr std::size_t kN = 4999;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  std::atomic<std::size_t> chunks{0};
  ForOptions opts{partitioner, grain, &pool};
  parallel_for_range(0, kN, opts, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    chunks.fetch_add(1);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
  EXPECT_GE(chunks.load(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitionersAndGrains, ParallelForProperty,
    ::testing::Combine(::testing::Values(Partitioner::kAuto,
                                         Partitioner::kSimple,
                                         Partitioner::kStatic),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{64}, std::size_t{2048},
                                         std::size_t{100000})),
    [](const auto& pinfo) {
      return std::string(to_string(std::get<0>(pinfo.param))) + "_grain" +
             std::to_string(std::get<1>(pinfo.param));
    });

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for_range(5, 5, {}, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for_range(7, 3, {}, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleElementRange) {
  std::atomic<int> calls{0};
  parallel_for(0, 1, {}, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, NonZeroBegin) {
  std::mutex m;
  std::set<std::size_t> seen;
  parallel_for(100, 200, {}, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(m);
    seen.insert(i);
  });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 100u);
  EXPECT_EQ(*seen.rbegin(), 199u);
}

TEST(ParallelFor, NestedParallelForCompletes) {
  ThreadPool pool(3);
  ForOptions opts{Partitioner::kSimple, 1, &pool};
  std::atomic<int> total{0};
  parallel_for(0, 20, opts, [&](std::size_t) {
    parallel_for(0, 50, opts, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 20 * 50);
}

TEST(ParallelFor, LeavesAreEffectiveGrainChunks) {
  // Each leaf is one chunk of effective_grain() items, so every
  // partitioner makes the leaves partitioner.hpp documents: kStatic at
  // most `threads`, kSimple exactly the grain, kAuto about 8 per thread.
  using Leaves = std::vector<std::pair<std::size_t, std::size_t>>;
  ThreadPool pool(3);
  // The second range has prime length 997.
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{5, 1005}, {11, 1008}}) {
    for (const auto p :
         {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
      const std::size_t n = end - begin;
      const std::size_t g = effective_grain(p, n, 8, pool.num_threads());
      std::mutex m;
      Leaves got;
      parallel_for_range(begin, end, {p, 8, &pool},
                         [&](std::size_t lo, std::size_t hi) {
                           std::lock_guard<std::mutex> lock(m);
                           got.emplace_back(lo, hi);
                         });
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got.size(), (n + g - 1) / g) << to_string(p) << " n " << n;
      if (got.size() != (n + g - 1) / g) continue;
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(got[c].first, begin + c * g) << to_string(p) << " n " << n;
        ASSERT_EQ(got[c].second, std::min(end, begin + (c + 1) * g))
            << to_string(p) << " n " << n;
      }
    }
  }
}

TEST(ParallelReduce, SumsCorrectly) {
  constexpr std::size_t kN = 100000;
  const std::uint64_t got = parallel_reduce(
      0, kN, std::uint64_t{0}, {},
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const int got = parallel_reduce(
      3, 3, 42, {}, [](std::size_t, std::size_t) { return 0; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(got, 42);
}

TEST(ParallelReduce, WorksUnderAllPartitioners) {
  for (const auto p :
       {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
    ForOptions opts{p, 16, nullptr};
    const double got = parallel_reduce(
        0, 1000, 0.0, opts,
        [](std::size_t lo, std::size_t hi) {
          return static_cast<double>(hi - lo);
        },
        [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(got, 1000.0) << to_string(p);
  }
}

// The ParallelReduceSlots cases keep the names they had when the reduction
// with one partial per chunk was its own function; parallel_reduce is that
// reduction now. They run on pools of their own, with many chunks.

TEST(ParallelReduceSlots, SumsCorrectly) {
  constexpr std::size_t kN = 100000;
  ThreadPool pool(4);
  const std::uint64_t got = parallel_reduce(
      0, kN, std::uint64_t{0}, {Partitioner::kSimple, 64, &pool},
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(got, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ParallelReduceSlots, EmptyRangeReturnsIdentity) {
  ThreadPool pool(3);
  for (const auto p :
       {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
    const int got = parallel_reduce(
        7, 7, 42, {p, 1, &pool}, [](std::size_t, std::size_t) { return 0; },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(got, 42) << to_string(p);
  }
}

TEST(ParallelReduceSlots, ExternalPoolAndAllPartitioners) {
  ThreadPool pool(4);
  for (const auto p :
       {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
    ForOptions opts{p, 8, &pool};
    const double got = parallel_reduce(
        0, 1000, 0.0, opts,
        [](std::size_t lo, std::size_t hi) {
          return static_cast<double>(hi - lo);
        },
        [](double a, double b) { return a + b; });
    EXPECT_DOUBLE_EQ(got, 1000.0) << to_string(p);
  }
}

TEST(ParallelReduce, ArrayAccumulator) {
  // The lane-residual use case: a fixed-width array merged element-wise
  // without a mutex.
  constexpr std::size_t kLanes = 8;
  using Acc = std::array<double, kLanes>;
  constexpr std::size_t kN = 4096;
  ThreadPool pool(3);
  ForOptions opts{Partitioner::kAuto, 16, &pool};
  const Acc got = parallel_reduce(
      0, kN, Acc{}, opts,
      [](std::size_t lo, std::size_t hi) {
        Acc a{};
        for (std::size_t i = lo; i < hi; ++i) a[i % kLanes] += 1.0;
        return a;
      },
      [](Acc a, const Acc& b) {
        for (std::size_t k = 0; k < kLanes; ++k) a[k] += b[k];
        return a;
      });
  for (std::size_t k = 0; k < kLanes; ++k) {
    EXPECT_DOUBLE_EQ(got[k], static_cast<double>(kN / kLanes)) << "lane " << k;
  }
}

TEST(ParallelReduce, NestedInsideParallelFor) {
  // The reduce must stay correct when it runs from inside a worker of the
  // same pool (the nested-parallelism path in the runner).
  ThreadPool pool(3);
  ForOptions outer{Partitioner::kSimple, 1, &pool};
  std::vector<std::uint64_t> results(8, 0);
  parallel_for(0, results.size(), outer, [&](std::size_t i) {
    ForOptions inner{Partitioner::kAuto, 16, &pool};
    results[i] = parallel_reduce(
        0, 1000, std::uint64_t{0}, inner,
        [](std::size_t lo, std::size_t hi) {
          return static_cast<std::uint64_t>(hi - lo);
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  });
  for (const std::uint64_t r : results) EXPECT_EQ(r, 1000u);
}

TEST(ParallelReduce, CombinesChunksInRangeOrder) {
  // Concatenation does not commute, so the result shows the combine
  // order: one partial per effective_grain()-wide chunk, combined in range
  // order however the pool scheduled the chunks.
  using Chunks = std::vector<std::pair<std::size_t, std::size_t>>;
  constexpr std::size_t kBegin = 5;
  constexpr std::size_t kEnd = 1005;
  ThreadPool pool(4);
  for (const auto p :
       {Partitioner::kAuto, Partitioner::kSimple, Partitioner::kStatic}) {
    const ForOptions opts{p, 8, &pool};
    const std::size_t g =
        effective_grain(p, kEnd - kBegin, opts.grain, pool.num_threads());
    for (int call = 0; call < 20; ++call) {
      const Chunks got = parallel_reduce(
          kBegin, kEnd, Chunks{}, opts,
          [](std::size_t lo, std::size_t hi) { return Chunks{{lo, hi}}; },
          [](Chunks a, const Chunks& b) {
            a.insert(a.end(), b.begin(), b.end());
            return a;
          });
      ASSERT_EQ(got.size(), (kEnd - kBegin + g - 1) / g) << to_string(p);
      for (std::size_t c = 0; c < got.size(); ++c) {
        ASSERT_EQ(got[c].first, kBegin + c * g) << to_string(p);
        ASSERT_EQ(got[c].second, std::min(kEnd, kBegin + (c + 1) * g))
            << to_string(p);
      }
    }
  }
}

TEST(ParallelReduce, RepeatedCallsAreBitIdentical) {
  // Floating-point addition does not associate: partials folded in the
  // order threads happened to finish them would change the last bits from
  // call to call.
  ThreadPool pool(3);
  const auto harmonic = [&](const ForOptions& opts, std::size_t n) {
    return parallel_reduce(
        0, n, 0.0, opts,
        [](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += 1.0 / static_cast<double>(i + 1);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  for (const auto& [opts, n] :
       {std::pair<ForOptions, std::size_t>{{Partitioner::kSimple, 16, &pool},
                                           20000},
        {{Partitioner::kAuto, 1, &pool}, 2000000}}) {
    const double first = harmonic(opts, n);
    for (int call = 0; call < 200; ++call) {
      ASSERT_EQ(harmonic(opts, n), first)
          << to_string(opts.partitioner) << " call " << call;
    }
  }
}

}  // namespace
}  // namespace pmpr::par
