#include "par/partitioner.hpp"

#include <gtest/gtest.h>

namespace pmpr::par {
namespace {

TEST(Partitioner, ToStringRoundTrip) {
  EXPECT_EQ(to_string(Partitioner::kAuto), "auto");
  EXPECT_EQ(to_string(Partitioner::kSimple), "simple");
  EXPECT_EQ(to_string(Partitioner::kStatic), "static");
}

TEST(Partitioner, SimpleHonorsGrainExactly) {
  EXPECT_EQ(effective_grain(Partitioner::kSimple, 10000, 7, 8), 7u);
  EXPECT_EQ(effective_grain(Partitioner::kSimple, 10, 2048, 8), 2048u);
}

TEST(Partitioner, GrainZeroClampsToOne) {
  EXPECT_EQ(effective_grain(Partitioner::kSimple, 100, 0, 4), 1u);
}

TEST(Partitioner, AutoNeverSplitsBelowRequestedGrain) {
  for (std::size_t grain : {1u, 4u, 64u, 2048u}) {
    EXPECT_GE(effective_grain(Partitioner::kAuto, 100000, grain, 8), grain);
  }
}

TEST(Partitioner, AutoCreatesSeveralChunksPerThread) {
  const std::size_t n = 80000;
  const std::size_t threads = 10;
  const std::size_t g = effective_grain(Partitioner::kAuto, n, 1, threads);
  // ~8 chunks per thread.
  EXPECT_EQ(g, n / (8 * threads));
}

TEST(Partitioner, StaticCreatesAtMostThreadsChunks) {
  const std::size_t n = 1000;
  const std::size_t threads = 8;
  const std::size_t g = effective_grain(Partitioner::kStatic, n, 1, threads);
  EXPECT_EQ(g, (n + threads - 1) / threads);
  EXPECT_LE((n + g - 1) / g, threads);
}

TEST(Partitioner, StaticHonorsLargerGrain) {
  EXPECT_EQ(effective_grain(Partitioner::kStatic, 100, 1000, 4), 1000u);
}

TEST(Partitioner, ZeroThreadsClampsToOne) {
  EXPECT_EQ(effective_grain(Partitioner::kStatic, 100, 1, 0), 100u);
}

TEST(Partitioner, TinyRangeYieldsAtLeastOne) {
  EXPECT_GE(effective_grain(Partitioner::kAuto, 1, 1, 48), 1u);
  EXPECT_GE(effective_grain(Partitioner::kStatic, 1, 1, 48), 1u);
}

}  // namespace
}  // namespace pmpr::par
