#include "streaming/incremental_pagerank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/csr.hpp"
#include "test_helpers.hpp"

namespace pmpr::streaming {
namespace {

PagerankParams tight_params() {
  PagerankParams p;
  p.tol = 1e-12;
  p.max_iters = 500;
  return p;
}

std::vector<double> to_vec(std::span<const double> s) {
  return {s.begin(), s.end()};
}

TEST(IncrementalPagerank, ColdStartMatchesBruteForce) {
  const TemporalEdgeList events = test::random_events(66, 40, 800, 1000);
  DynamicGraph g(events.num_vertices());
  g.insert_batch(events.slice(0, 1000));
  IncrementalPagerank pr(g, tight_params());
  pr.update();
  const auto ref = test::brute_pagerank(
      test::brute_window_edges(events, 0, 1000), events.num_vertices(), 0.15,
      1e-12, 500);
  EXPECT_LT(test::linf_diff(to_vec(pr.values()), ref), 1e-9);
}

TEST(IncrementalPagerank, TracksGraphThroughWindowSlides) {
  const TemporalEdgeList events = test::random_events(77, 30, 1500, 8000);
  const WindowSpec spec = WindowSpec::cover(0, 8000, 2000, 600);
  DynamicGraph g(events.num_vertices());
  IncrementalPagerank pr(g, tight_params());

  for (std::size_t w = 0; w < spec.count; ++w) {
    if (w == 0) {
      g.insert_batch(events.slice(spec.start(0), spec.end(0)));
    } else {
      g.remove_batch(events.slice(spec.start(w - 1), spec.start(w) - 1));
      g.insert_batch(events.slice(spec.end(w - 1) + 1, spec.end(w)));
    }
    pr.update();
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(events, spec.start(w), spec.end(w)),
        events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(to_vec(pr.values()), ref), 1e-9)
        << "window " << w;
  }
}

TEST(IncrementalPagerank, WarmStartUsesFewerIterationsThanCold) {
  const TemporalEdgeList events = test::random_events(88, 50, 4000, 10000);
  // Heavily overlapping windows: warm start should pay off.
  const WindowSpec spec = WindowSpec::cover(0, 10000, 4000, 200);
  PagerankParams p;
  p.tol = 1e-10;
  p.max_iters = 500;

  auto run = [&](bool incremental) {
    DynamicGraph g(events.num_vertices());
    IncrementalPagerank pr(g, p);
    std::uint64_t total_iters = 0;
    for (std::size_t w = 0; w < spec.count; ++w) {
      if (w == 0) {
        g.insert_batch(events.slice(spec.start(0), spec.end(0)));
      } else {
        g.remove_batch(events.slice(spec.start(w - 1), spec.start(w) - 1));
        g.insert_batch(events.slice(spec.end(w - 1) + 1, spec.end(w)));
      }
      if (!incremental) pr.reset();
      total_iters += static_cast<std::uint64_t>(pr.update().iterations);
    }
    return total_iters;
  };

  const std::uint64_t warm = run(true);
  const std::uint64_t cold = run(false);
  EXPECT_LT(warm, cold);
}

TEST(IncrementalPagerank, EmptyGraphGivesZeroVector) {
  DynamicGraph g(5);
  IncrementalPagerank pr(g, tight_params());
  const PagerankStats stats = pr.update();
  EXPECT_EQ(stats.iterations, 0);
  for (const double v : pr.values()) EXPECT_EQ(v, 0.0);
}

TEST(IncrementalPagerank, RecoverFromEmptyToNonEmpty) {
  DynamicGraph g(4);
  IncrementalPagerank pr(g, tight_params());
  pr.update();
  g.insert_event(0, 1);
  g.insert_event(1, 0);
  pr.update();
  const double total = std::accumulate(pr.values().begin(),
                                       pr.values().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(IncrementalPagerank, ParallelKernelMatchesSequential) {
  const TemporalEdgeList events = test::random_events(99, 60, 2000, 1000);
  DynamicGraph g(events.num_vertices());
  g.insert_batch(events.events());

  IncrementalPagerank seq(g, tight_params());
  seq.update();
  IncrementalPagerank parl(g, tight_params());
  par::ForOptions opts{par::Partitioner::kAuto, 8, nullptr};
  parl.update(&opts);
  EXPECT_LT(test::linf_diff(to_vec(seq.values()), to_vec(parl.values())),
            1e-12);
}

TEST(IncrementalPagerank, ColdUpdatesRunTheOfflineKernelBitwise) {
  // pagerank() and both refreshes run one power-iteration driver. On a
  // window inserted in ascending source order, every in-chain lists its
  // neighbors in the CSR's order, so a cold warm-restart update and a cold
  // ∆-push update reproduce pagerank()'s bits and iteration count.
  constexpr VertexId kVertices = 300;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<TemporalEdge> window;
    while (window.size() < 3000) {
      const auto u = static_cast<VertexId>(rng.bounded(kVertices));
      const auto v = static_cast<VertexId>(rng.bounded(kVertices));
      if (u != v) window.push_back({u, v, 0});
    }
    std::stable_sort(window.begin(), window.end(),
                     [](const TemporalEdge& a, const TemporalEdge& b) {
                       return a.src < b.src;
                     });

    const WindowGraph wg = build_window_graph(window, kVertices);
    std::vector<double> x(kVertices, 0.0);
    std::vector<double> scratch(kVertices, 0.0);
    full_init(wg.is_active, wg.num_active, x);
    const PagerankStats offline = pagerank(wg, x, scratch, PagerankParams{});

    DynamicGraph g(kVertices);
    g.insert_batch(window);
    IncrementalPagerank warm(g, PagerankParams{});
    const PagerankStats warm_stats = warm.update();
    IncrementalPagerank delta(g, PagerankParams{});
    const DeltaPushStats delta_stats = delta.update_delta_push(window, {});

    EXPECT_EQ(warm_stats.iterations, offline.iterations) << "seed " << seed;
    EXPECT_EQ(delta_stats.pagerank.iterations, offline.iterations)
        << "seed " << seed;
    EXPECT_EQ(warm_stats.final_residual, offline.final_residual)
        << "seed " << seed;
    EXPECT_EQ(delta_stats.pagerank.final_residual, offline.final_residual)
        << "seed " << seed;
    EXPECT_EQ(to_vec(warm.values()), x) << "seed " << seed;
    EXPECT_EQ(to_vec(delta.values()), x) << "seed " << seed;
  }
}

TEST(IncrementalPagerank, ValuesSumToOneAfterEveryUpdate) {
  const TemporalEdgeList events = test::random_events(111, 40, 2000, 5000);
  const WindowSpec spec = WindowSpec::cover(0, 5000, 1500, 500);
  DynamicGraph g(events.num_vertices());
  IncrementalPagerank pr(g, tight_params());
  for (std::size_t w = 0; w < spec.count; ++w) {
    if (w == 0) {
      g.insert_batch(events.slice(spec.start(0), spec.end(0)));
    } else {
      g.remove_batch(events.slice(spec.start(w - 1), spec.start(w) - 1));
      g.insert_batch(events.slice(spec.end(w - 1) + 1, spec.end(w)));
    }
    pr.update();
    const double total = std::accumulate(pr.values().begin(),
                                         pr.values().end(), 0.0);
    if (g.num_active() > 0) {
      ASSERT_NEAR(total, 1.0, 1e-9) << "window " << w;
    } else {
      ASSERT_EQ(total, 0.0) << "window " << w;
    }
  }
}

}  // namespace
}  // namespace pmpr::streaming
