// The reference SpMV kernel of the test oracle against brute force. The
// kSpmv kernel the runner executes, one-lane SpMM batches, is held
// bit-identical to the SpMM reference by oracle_differential_test.cpp.
#include <gtest/gtest.h>

#include <numeric>

#include "oracle/reference_kernels.hpp"
#include "pagerank/partial_init.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet set;

  explicit Fixture(std::uint64_t seed, std::size_t parts = 1)
      : events(test::random_events(seed, 60, 3000, 30000)),
        spec(WindowSpec::cover(0, 30000, 8000, 1500)),
        set(MultiWindowSet::build(events, spec, parts)) {}
};

PagerankParams tight_params() {
  PagerankParams p;
  p.tol = 1e-12;
  p.max_iters = 500;
  return p;
}

std::vector<double> run_window(const Fixture& f, std::size_t w,
                               const par::ForOptions* parallel = nullptr) {
  const auto& part = f.set.part_for_window(w);
  oracle::WindowState state;
  oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w), state,
                               parallel);
  std::vector<double> x(part.num_local());
  std::vector<double> scratch(part.num_local());
  full_init(state.active, state.num_active, x);
  oracle::pagerank_window_spmv(part, f.spec.start(w), f.spec.end(w), state,
                               x, scratch, tight_params(), parallel);
  // Map to global space for comparison.
  std::vector<double> dense(f.events.num_vertices(), 0.0);
  for (VertexId local = 0; local < part.num_local(); ++local) {
    dense[part.global_of(local)] = x[local];
  }
  return dense;
}

TEST(SpmvTemporal, MatchesBruteForceEveryWindow) {
  const Fixture f(101);
  for (std::size_t w = 0; w < f.spec.count; ++w) {
    const auto got = run_window(f, w);
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(f.events, f.spec.start(w), f.spec.end(w)),
        f.events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(got, ref), 1e-9) << "window " << w;
  }
}

TEST(SpmvTemporal, MultiPartMatchesSinglePart) {
  const Fixture one(202, 1);
  const Fixture many(202, 5);
  for (std::size_t w = 0; w < one.spec.count; ++w) {
    const auto a = run_window(one, w);
    const auto b = run_window(many, w);
    ASSERT_LT(test::linf_diff(a, b), 1e-10) << "window " << w;
  }
}

TEST(SpmvTemporal, ParallelKernelMatchesSequential) {
  const Fixture f(303);
  par::ForOptions opts{par::Partitioner::kSimple, 4, nullptr};
  for (std::size_t w = 0; w < f.spec.count; w += 2) {
    const auto seq = run_window(f, w);
    const auto parl = run_window(f, w, &opts);
    ASSERT_LT(test::linf_diff(seq, parl), 1e-12) << "window " << w;
  }
}

TEST(SpmvTemporal, ResultIsDistribution) {
  const Fixture f(404);
  for (std::size_t w = 0; w < f.spec.count; ++w) {
    const auto x = run_window(f, w);
    const double total = std::accumulate(x.begin(), x.end(), 0.0);
    if (test::brute_window_edges(f.events, f.spec.start(w), f.spec.end(w))
            .empty()) {
      EXPECT_EQ(total, 0.0);
    } else {
      EXPECT_NEAR(total, 1.0, 1e-9) << "window " << w;
    }
  }
}

TEST(SpmvTemporal, EmptyWindowZeroVector) {
  TemporalEdgeList events;
  events.add(0, 1, 100);
  events.ensure_vertices(4);
  const WindowSpec spec{.t0 = 0, .delta = 10, .sw = 1, .count = 1};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  oracle::WindowState state;
  oracle::compute_window_state(part, 0, 10, state);
  std::vector<double> x(part.num_local(), 99.0);
  std::vector<double> scratch(part.num_local());
  const PagerankStats stats = oracle::pagerank_window_spmv(
      part, 0, 10, state, x, scratch, tight_params());
  EXPECT_EQ(stats.iterations, 0);
  for (const double v : x) EXPECT_EQ(v, 0.0);
}

TEST(SpmvTemporal, WarmStartConvergesFasterThanCold) {
  // The partial-initialization premise (paper §4.2): starting from the
  // previous window's vector takes fewer iterations than uniform.
  const Fixture f(505);
  const auto& part = f.set.part(0);
  PagerankParams p;
  p.tol = 1e-10;
  p.max_iters = 500;

  // Converge window w fully, then use it as the start for window w+1.
  std::size_t w = f.spec.count / 2;
  oracle::WindowState sw_state;
  oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w),
                               sw_state);
  std::vector<double> prev(part.num_local());
  std::vector<double> scratch(part.num_local());
  full_init(sw_state.active, sw_state.num_active, prev);
  oracle::pagerank_window_spmv(part, f.spec.start(w), f.spec.end(w), sw_state,
                               prev, scratch, p);

  oracle::WindowState next_state;
  oracle::compute_window_state(part, f.spec.start(w + 1), f.spec.end(w + 1),
                               next_state);
  std::vector<double> cold(part.num_local());
  full_init(next_state.active, next_state.num_active, cold);
  const PagerankStats cold_stats =
      oracle::pagerank_window_spmv(part, f.spec.start(w + 1),
                                   f.spec.end(w + 1), next_state, cold,
                                   scratch, p);

  std::vector<double> warm(part.num_local());
  partial_init(prev, sw_state.active, next_state.active,
               next_state.num_active, warm);
  const PagerankStats warm_stats =
      oracle::pagerank_window_spmv(part, f.spec.start(w + 1),
                                   f.spec.end(w + 1), next_state, warm,
                                   scratch, p);

  EXPECT_LE(warm_stats.iterations, cold_stats.iterations);
  EXPECT_LT(test::linf_diff(cold, warm), 1e-8);
}

}  // namespace
}  // namespace pmpr
