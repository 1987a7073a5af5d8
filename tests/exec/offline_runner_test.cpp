#include "exec/offline_runner.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pmpr {
namespace {

TEST(OfflineRunner, EveryWindowMatchesBruteForce) {
  const TemporalEdgeList events = test::random_events(7, 40, 1500, 8000);
  const WindowSpec spec = WindowSpec::cover(0, 8000, 2000, 700);
  StoreAllSink sink(spec.count);
  OfflineOptions opts;
  opts.pr.tol = 1e-12;
  opts.pr.max_iters = 500;
  const RunResult r = run_offline(events, spec, sink, opts);

  EXPECT_EQ(r.num_windows, spec.count);
  for (std::size_t w = 0; w < spec.count; ++w) {
    const auto got = sink.dense(w, events.num_vertices());
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(events, spec.start(w), spec.end(w)),
        events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(got, ref), 1e-9) << "window " << w;
  }
}

TEST(OfflineRunner, ReportsTimingAndIterations) {
  const TemporalEdgeList events = test::random_events(9, 40, 1500, 8000);
  const WindowSpec spec = WindowSpec::cover(0, 8000, 2000, 700);
  NullSink sink;
  OfflineOptions opts;
  const RunResult r = run_offline(events, spec, sink, opts);
  EXPECT_GT(r.build_seconds, 0.0);
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_GT(r.total_iterations, 0u);
  EXPECT_EQ(r.iterations_per_window.size(), spec.count);
  std::uint64_t total = 0;
  for (const int it : r.iterations_per_window) {
    total += static_cast<std::uint64_t>(it);
  }
  EXPECT_EQ(total, r.total_iterations);
}

TEST(OfflineRunner, SequentialKernelMatchesParallel) {
  // A one-thread pool runs each sweep as one call on the caller: the
  // sequential kernel.
  const TemporalEdgeList events = test::random_events(11, 60, 2000, 6000);
  const WindowSpec spec = WindowSpec::cover(0, 6000, 1500, 600);
  par::ThreadPool one(1);
  par::ThreadPool three(3);
  OfflineOptions seq;
  seq.pr.tol = 1e-12;
  seq.pool = &one;
  OfflineOptions parl = seq;
  parl.pool = &three;

  StoreAllSink a(spec.count);
  StoreAllSink b(spec.count);
  run_offline(events, spec, a, seq);
  run_offline(events, spec, b, parl);
  for (std::size_t w = 0; w < spec.count; ++w) {
    ASSERT_LT(test::linf_diff(a.dense(w, events.num_vertices()),
                              b.dense(w, events.num_vertices())),
              1e-12)
        << "window " << w;
  }
}

TEST(OfflineRunner, EmptyEventListAllWindowsZero) {
  TemporalEdgeList events;
  events.ensure_vertices(10);
  const WindowSpec spec{.t0 = 0, .delta = 10, .sw = 5, .count = 4};
  StoreAllSink sink(spec.count);
  OfflineOptions opts;
  const RunResult r = run_offline(events, spec, sink, opts);
  EXPECT_EQ(r.total_iterations, 0u);
  for (std::size_t w = 0; w < spec.count; ++w) {
    EXPECT_TRUE(sink.window(w).empty());
  }
}

}  // namespace
}  // namespace pmpr
