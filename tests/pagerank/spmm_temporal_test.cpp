// The reference SpMM kernel of the test oracle against brute force and
// against the reference SpMV kernel. The compiled kernel the runner executes
// is held bit-identical to it by oracle_differential_test.cpp.
#include <gtest/gtest.h>

#include <numeric>

#include "oracle/reference_kernels.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet set;

  explicit Fixture(std::uint64_t seed)
      : events(test::random_events(seed, 60, 4000, 40000)),
        spec(WindowSpec::cover(0, 40000, 9000, 1500)),
        set(MultiWindowSet::build(events, spec, 1)) {}
};

PagerankParams tight_params() {
  PagerankParams p;
  p.tol = 1e-12;
  p.max_iters = 500;
  return p;
}

/// Runs one SpMM batch with full per-lane initialization and returns the
/// per-lane dense global vectors.
std::vector<std::vector<double>> run_batch(
    const Fixture& f, const SpmmBatch& batch,
    const par::ForOptions* parallel = nullptr) {
  const auto& part = f.set.part(0);
  const std::size_t n = part.num_local();
  SpmmWindowState state;
  oracle::compute_spmm_state(part, f.spec, batch, state, parallel);

  std::vector<double> x(n * batch.lanes);
  std::vector<double> scratch(n * batch.lanes);
  for (std::size_t k = 0; k < batch.lanes; ++k) {
    const double uniform =
        state.num_active[k] > 0
            ? 1.0 / static_cast<double>(state.num_active[k])
            : 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      x[v * batch.lanes + k] =
          (state.active_mask[v] >> k & 1) != 0 ? uniform : 0.0;
    }
  }
  oracle::pagerank_spmm(part, f.spec, batch, state, x, scratch,
                        tight_params(), parallel);

  std::vector<std::vector<double>> out(
      batch.lanes, std::vector<double>(f.events.num_vertices(), 0.0));
  for (std::size_t k = 0; k < batch.lanes; ++k) {
    for (VertexId v = 0; v < n; ++v) {
      out[k][part.global_of(v)] = x[v * batch.lanes + k];
    }
  }
  return out;
}

class SpmmLanes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpmmLanes, EveryLaneMatchesBruteForce) {
  const Fixture f(606);
  SpmmBatch batch;
  batch.lanes = std::min<std::size_t>(GetParam(), f.spec.count);
  batch.first_window = 0;
  batch.window_stride = std::max<std::size_t>(1, f.spec.count / batch.lanes);
  const auto lanes = run_batch(f, batch);
  for (std::size_t k = 0; k < batch.lanes; ++k) {
    const std::size_t w = batch.window_of_lane(k);
    if (w >= f.spec.count) continue;
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(f.events, f.spec.start(w), f.spec.end(w)),
        f.events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(lanes[k], ref), 1e-9)
        << "lane " << k << " window " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, SpmmLanes,
                         ::testing::Values(1, 2, 4, 8, 16, 64),
                         [](const auto& pinfo) {
                           // += instead of operator+ dodges a GCC 12
                           // -Wrestrict false positive (PR105651).
                           std::string name = "L";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(SpmmTemporal, MatchesSpmvPerWindow) {
  const Fixture f(707);
  const auto& part = f.set.part(0);
  SpmmBatch batch{.lanes = std::min<std::size_t>(8, f.spec.count),
                  .first_window = 0,
                  .window_stride = 2};
  const auto lanes = run_batch(f, batch);

  for (std::size_t k = 0; k < batch.lanes; ++k) {
    const std::size_t w = batch.window_of_lane(k);
    if (w >= f.spec.count) continue;
    oracle::WindowState state;
    oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w),
                                 state);
    std::vector<double> x(part.num_local());
    std::vector<double> scratch(part.num_local());
    full_init(state.active, state.num_active, x);
    oracle::pagerank_window_spmv(part, f.spec.start(w), f.spec.end(w), state,
                                 x, scratch, tight_params());
    std::vector<double> dense(f.events.num_vertices(), 0.0);
    for (VertexId v = 0; v < part.num_local(); ++v) {
      dense[part.global_of(v)] = x[v];
    }
    ASSERT_LT(test::linf_diff(lanes[k], dense), 1e-10) << "lane " << k;
  }
}

TEST(SpmmTemporal, ParallelMatchesSequential) {
  const Fixture f(808);
  SpmmBatch batch{.lanes = 4, .first_window = 0, .window_stride = 3};
  const auto seq = run_batch(f, batch);
  par::ForOptions opts{par::Partitioner::kAuto, 4, nullptr};
  const auto parl = run_batch(f, batch, &opts);
  for (std::size_t k = 0; k < batch.lanes; ++k) {
    ASSERT_LT(test::linf_diff(seq[k], parl[k]), 1e-12) << "lane " << k;
  }
}

TEST(SpmmTemporal, EachLaneIsDistribution) {
  const Fixture f(909);
  SpmmBatch batch{.lanes = std::min<std::size_t>(8, f.spec.count),
                  .first_window = 1,
                  .window_stride = 2};
  const auto lanes = run_batch(f, batch);
  for (std::size_t k = 0; k < batch.lanes; ++k) {
    const std::size_t w = batch.window_of_lane(k);
    if (w >= f.spec.count) continue;
    const double total =
        std::accumulate(lanes[k].begin(), lanes[k].end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9) << "lane " << k;
  }
}

TEST(SpmmTemporal, EmptyLaneStaysZero) {
  // Construct events only in early windows; a lane pointing at a late,
  // empty window must come back all-zero while other lanes converge.
  TemporalEdgeList events;
  for (int i = 0; i < 50; ++i) {
    events.add(static_cast<VertexId>(i % 5),
               static_cast<VertexId>((i + 1) % 5), i);
  }
  events.ensure_vertices(5);
  const WindowSpec spec{.t0 = 0, .delta = 49, .sw = 1000, .count = 2};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  SpmmBatch batch{.lanes = 2, .first_window = 0, .window_stride = 1};
  SpmmWindowState state;
  oracle::compute_spmm_state(part, spec, batch, state);
  EXPECT_GT(state.num_active[0], 0u);
  EXPECT_EQ(state.num_active[1], 0u);

  const std::size_t n = part.num_local();
  std::vector<double> x(n * 2, 0.5);
  std::vector<double> scratch(n * 2);
  oracle::pagerank_spmm(part, spec, batch, state, x, scratch, tight_params());
  double lane0 = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(x[v * 2 + 1], 0.0);
    lane0 += x[v * 2 + 0];
  }
  EXPECT_NEAR(lane0, 1.0, 1e-9);
}

TEST(SpmmTemporal, LaneIterationsReported) {
  const Fixture f(111);
  SpmmBatch batch{.lanes = 4, .first_window = 0, .window_stride = 2};
  const auto& part = f.set.part(0);
  SpmmWindowState state;
  oracle::compute_spmm_state(part, f.spec, batch, state);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * 4);
  std::vector<double> scratch(n * 4);
  for (std::size_t k = 0; k < 4; ++k) {
    const double u = state.num_active[k] > 0
                         ? 1.0 / static_cast<double>(state.num_active[k])
                         : 0.0;
    for (std::size_t v = 0; v < n; ++v) {
      x[v * 4 + k] = (state.active_mask[v] >> k & 1) != 0 ? u : 0.0;
    }
  }
  PagerankParams p;
  p.tol = 1e-9;
  const SpmmStats stats =
      oracle::pagerank_spmm(part, f.spec, batch, state, x, scratch, p);
  EXPECT_EQ(stats.lane_stats.size(), 4u);
  int max_lane_iters = 0;
  for (const auto& ls : stats.lane_stats) {
    EXPECT_GT(ls.iterations, 0);
    max_lane_iters = std::max(max_lane_iters, ls.iterations);
  }
  EXPECT_EQ(stats.iterations, max_lane_iters);
}

}  // namespace
}  // namespace pmpr
