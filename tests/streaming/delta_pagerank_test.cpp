// The ∆-push refresh (IncrementalPagerank::update_delta_push, Eq. 3).
#include <gtest/gtest.h>

#include <numeric>

#include "streaming/incremental_pagerank.hpp"
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

/// Drives graph + ∆-push PR through the sliding windows, checking every
/// window against brute force.
TEST(DeltaPagerank, TracksWindowsToSharedTolerance) {
  const TemporalEdgeList events = test::random_events(123, 30, 1500, 8000);
  const WindowSpec spec = WindowSpec::cover(0, 8000, 2000, 600);
  DynamicGraph g(events.num_vertices());
  IncrementalPagerank pr(g, tight_params());

  for (std::size_t w = 0; w < spec.count; ++w) {
    std::span<const TemporalEdge> inserted;
    std::span<const TemporalEdge> removed;
    if (w == 0) {
      inserted = events.slice(spec.start(0), spec.end(0));
    } else {
      removed = events.slice(spec.start(w - 1), spec.start(w) - 1);
      inserted = events.slice(spec.end(w - 1) + 1, spec.end(w));
    }
    g.remove_batch(removed);
    g.insert_batch(inserted);
    pr.update_delta_push(inserted, removed);

    const auto ref = test::brute_pagerank(
        test::brute_window_edges(events, spec.start(w), spec.end(w)),
        events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(to_vec(pr.values()), ref), 1e-9)
        << "window " << w;
  }
}

TEST(DeltaPagerank, SmallBatchesNeedFewerCertifyingSweeps) {
  // Tiny slide relative to the window: the frontier phase should absorb
  // most of the change, leaving fewer full sweeps than a plain warm
  // restart needs.
  const TemporalEdgeList events = test::random_events(77, 60, 6000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 5000, 100);
  PagerankParams p;
  p.tol = 1e-10;
  p.max_iters = 500;

  DynamicGraph gd(events.num_vertices());
  IncrementalPagerank delta(gd, p);
  DynamicGraph gw(events.num_vertices());
  IncrementalPagerank warm(gw, p);

  std::uint64_t delta_sweeps = 0;
  std::uint64_t warm_sweeps = 0;
  std::uint64_t total_rounds = 0;
  for (std::size_t w = 0; w < spec.count; ++w) {
    std::span<const TemporalEdge> inserted;
    std::span<const TemporalEdge> removed;
    if (w == 0) {
      inserted = events.slice(spec.start(0), spec.end(0));
    } else {
      removed = events.slice(spec.start(w - 1), spec.start(w) - 1);
      inserted = events.slice(spec.end(w - 1) + 1, spec.end(w));
    }
    gd.remove_batch(removed);
    gd.insert_batch(inserted);
    gw.remove_batch(removed);
    gw.insert_batch(inserted);
    const auto ds = delta.update_delta_push(inserted, removed);
    delta_sweeps += static_cast<std::uint64_t>(ds.pagerank.iterations);
    warm_sweeps += static_cast<std::uint64_t>(warm.update().iterations);
    total_rounds += ds.frontier_rounds;
  }
  // The localized phase actually ran...
  EXPECT_GT(total_rounds, 0u);
  // ...and paid for itself in certifying sweeps.
  EXPECT_LE(delta_sweeps, warm_sweeps);
}

TEST(DeltaPagerank, EmptyGraphZeroVector) {
  DynamicGraph g(4);
  IncrementalPagerank pr(g, tight_params());
  const auto stats = pr.update_delta_push({}, {});
  EXPECT_EQ(stats.pagerank.iterations, 0);
  for (const double v : pr.values()) EXPECT_EQ(v, 0.0);
}

TEST(DeltaPagerank, ResetForcesColdStart) {
  const TemporalEdgeList events = test::random_events(31, 20, 400, 1000);
  DynamicGraph g(events.num_vertices());
  g.insert_batch(events.events());
  IncrementalPagerank pr(g, tight_params());
  pr.update_delta_push(events.events(), {});
  const auto x1 = to_vec(pr.values());
  pr.reset();
  const auto stats = pr.update_delta_push({}, {});
  EXPECT_EQ(stats.frontier_rounds, 0u);  // cold start skips the phase
  EXPECT_LT(test::linf_diff(x1, to_vec(pr.values())), 1e-9);
}

TEST(DeltaPagerank, ValuesStayDistribution) {
  const TemporalEdgeList events = test::random_events(41, 40, 2000, 5000);
  const WindowSpec spec = WindowSpec::cover(0, 5000, 1500, 400);
  DynamicGraph g(events.num_vertices());
  IncrementalPagerank pr(g, tight_params());
  for (std::size_t w = 0; w < spec.count; ++w) {
    std::span<const TemporalEdge> inserted;
    std::span<const TemporalEdge> removed;
    if (w == 0) {
      inserted = events.slice(spec.start(0), spec.end(0));
    } else {
      removed = events.slice(spec.start(w - 1), spec.start(w) - 1);
      inserted = events.slice(spec.end(w - 1) + 1, spec.end(w));
    }
    g.remove_batch(removed);
    g.insert_batch(inserted);
    pr.update_delta_push(inserted, removed);
    const double total = std::accumulate(pr.values().begin(),
                                         pr.values().end(), 0.0);
    if (g.num_active() > 0) {
      ASSERT_NEAR(total, 1.0, 1e-9) << "window " << w;
    }
  }
}

}  // namespace
}  // namespace pmpr::streaming
