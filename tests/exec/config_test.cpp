#include "exec/config.hpp"

#include <gtest/gtest.h>

namespace pmpr {
namespace {

TEST(Config, EnumToStringRoundTrip) {
  EXPECT_EQ(to_string(ParallelMode::kWindow), "window");
  EXPECT_EQ(to_string(ParallelMode::kPagerank), "pagerank");
  EXPECT_EQ(to_string(ParallelMode::kNested), "nested");

  EXPECT_EQ(to_string(KernelKind::kSpmv), "spmv");
  EXPECT_EQ(to_string(KernelKind::kSpmm), "spmm");
}

TEST(WorkloadProfile, Top2ShareComputed) {
  const std::vector<std::size_t> edges{10, 80, 5, 5};
  const WorkloadProfile p = WorkloadProfile::from_window_edges(edges);
  EXPECT_EQ(p.num_windows, 4u);
  EXPECT_DOUBLE_EQ(p.top2_share, 0.9);
}

TEST(WorkloadProfile, EmptyWindows) {
  const WorkloadProfile p = WorkloadProfile::from_window_edges({});
  EXPECT_EQ(p.num_windows, 0u);
  EXPECT_EQ(p.top2_share, 0.0);
}

TEST(WorkloadProfile, UniformWindowsLowShare) {
  const std::vector<std::size_t> edges(100, 10);
  const WorkloadProfile p = WorkloadProfile::from_window_edges(edges);
  EXPECT_NEAR(p.top2_share, 0.02, 1e-12);
}

TEST(SuggestConfig, PaperRulesAlwaysSpmmAutoSmallGrain) {
  // §6.3.6: "SpMM is never a bad choice", auto partitioner, grain <= 4.
  for (const double share : {0.02, 0.9}) {
    WorkloadProfile p;
    p.num_windows = 256;
    p.top2_share = share;
    const PostmortemConfig cfg = suggest_config(p, 8);
    EXPECT_EQ(cfg.kernel, KernelKind::kSpmm);
    EXPECT_EQ(cfg.partitioner, par::Partitioner::kAuto);
    EXPECT_LE(cfg.grain, 4u);
    EXPECT_TRUE(cfg.partial_init);
  }
}

TEST(SuggestConfig, BalancedManyWindowsUsesNested) {
  WorkloadProfile p;
  p.num_windows = 512;
  p.top2_share = 0.01;
  EXPECT_EQ(suggest_config(p, 8).mode, ParallelMode::kNested);
}

TEST(SuggestConfig, DominatedWorkloadUsesApplicationLevel) {
  // Enron/Epinions-like: a couple of windows carry most of the edges.
  WorkloadProfile p;
  p.num_windows = 512;
  p.top2_share = 0.8;
  EXPECT_EQ(suggest_config(p, 8).mode, ParallelMode::kPagerank);
}

TEST(SuggestConfig, FewWindowsUsesApplicationLevel) {
  WorkloadProfile p;
  p.num_windows = 6;
  p.top2_share = 0.05;
  EXPECT_EQ(suggest_config(p, 48).mode, ParallelMode::kPagerank);
}

TEST(SuggestConfig, MultiWindowCountBounded) {
  WorkloadProfile few;
  few.num_windows = 3;
  EXPECT_LE(suggest_config(few, 4).num_multi_windows, 3u);
  WorkloadProfile many;
  many.num_windows = 1000;
  EXPECT_GE(suggest_config(many, 4).num_multi_windows, 1u);
}

}  // namespace
}  // namespace pmpr
