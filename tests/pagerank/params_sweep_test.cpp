// Parameterized sweeps over PageRank parameters: the distribution invariant
// and cross-kernel agreement must hold for every (alpha, dangling) setting,
// not just the defaults.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "pagerank/spmv_temporal.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

using Cell = std::tuple<double, bool>;  // alpha, redistribute_dangling

class PagerankParamSweep : public ::testing::TestWithParam<Cell> {};

TEST_P(PagerankParamSweep, AllKernelsAgree) {
  const auto [alpha, redistribute] = GetParam();
  PagerankParams p;
  p.alpha = alpha;
  p.redistribute_dangling = redistribute;
  p.tol = 1e-12;
  p.max_iters = 500;

  const TemporalEdgeList events = test::random_events(77, 50, 1500, 10000);
  const Timestamp ts = 2000;
  const Timestamp te = 7000;
  const VertexId n = events.num_vertices();

  // Pull kernel on the static window graph.
  const WindowGraph g = build_window_graph(events.slice(ts, te), n);
  std::vector<double> pull(n);
  std::vector<double> scratch(n);
  full_init(g.is_active, g.num_active, pull);
  pagerank(g, pull, scratch, p);

  // Compiled temporal SpMV kernel through a multi-window part.
  const WindowSpec spec{.t0 = ts, .delta = te - ts, .sw = 1, .count = 1};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  WindowState state;
  CompiledWindowCsr compiled;
  compile_window(part, ts, te, state, compiled);
  std::vector<double> x(part.num_local());
  std::vector<double> tmp(part.num_local());
  full_init(state.active, state.num_active, x);
  pagerank_window_spmv(state, compiled, x, tmp, p);
  std::vector<double> temporal(n, 0.0);
  for (VertexId v = 0; v < part.num_local(); ++v) {
    temporal[part.global_of(v)] = x[v];
  }
  EXPECT_LT(test::linf_diff(pull, temporal), 1e-10);

  // Distribution invariant only holds with dangling redistribution.
  const double mass = std::accumulate(pull.begin(), pull.end(), 0.0);
  if (redistribute) {
    EXPECT_NEAR(mass, 1.0, 1e-9);
  } else {
    EXPECT_LE(mass, 1.0 + 1e-9);
    EXPECT_GT(mass, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaDanglingGrid, PagerankParamSweep,
    ::testing::Combine(::testing::Values(0.01, 0.15, 0.5, 0.85),
                       ::testing::Values(true, false)),
    [](const auto& pinfo) {
      const double alpha = std::get<0>(pinfo.param);
      const bool redistribute = std::get<1>(pinfo.param);
      return "alpha" + std::to_string(static_cast<int>(alpha * 100)) +
             (redistribute ? "_dangling" : "_leak");
    });

class ToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceSweep, TighterToleranceMoreIterationsCloserToFixpoint) {
  const double tol = GetParam();
  const TemporalEdgeList events = test::random_events(88, 60, 2000, 1000);
  const WindowGraph g =
      build_window_graph(events.events(), events.num_vertices());
  PagerankParams p;
  p.tol = tol;
  p.max_iters = 1000;
  std::vector<double> x(g.num_vertices);
  std::vector<double> scratch(g.num_vertices);
  full_init(g.is_active, g.num_active, x);
  const PagerankStats stats = pagerank(g, x, scratch, p);
  EXPECT_TRUE(stats.converged(p));

  // Reference at much tighter tolerance.
  PagerankParams tight = p;
  tight.tol = 1e-14;
  std::vector<double> ref(g.num_vertices);
  full_init(g.is_active, g.num_active, ref);
  pagerank(g, ref, scratch, tight);
  // Error is bounded by a small multiple of the tolerance (contraction).
  EXPECT_LT(test::linf_diff(x, ref), 10.0 * tol + 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, ToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10),
                         [](const auto& pinfo) {
                           return "tol1e" +
                                  std::to_string(static_cast<int>(
                                      -std::log10(pinfo.param)));
                         });

}  // namespace
}  // namespace pmpr
