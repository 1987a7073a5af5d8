// Determinism and thread-count independence of the postmortem driver.
//
// Pull-style kernels sum each vertex's contributions in a fixed order, and
// task partitioning never changes that order. Partial initialization does
// not hold to it yet: an item chains from the last item its leased thread
// state processed, and in window and nested mode the state a chunk's first
// item gets depends on which thread ran the chunk before. That item's
// initial vector, and with it its iteration count and last bits, can then
// differ between two runs on the same pool (ROADMAP item 1), so
// RepeatedRunsBitwiseIdentical fails until the carry is made
// deterministic. Across pool sizes the ranks agree to a tolerance; kPagerank
// mode runs windows strictly in order on one state and keeps its iteration
// counts.
#include <gtest/gtest.h>

#include <string_view>

#include "exec/postmortem_runner.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Scenario {
  TemporalEdgeList events = test::random_events(71, 50, 3000, 20000);
  WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 900);
};

std::vector<std::vector<std::pair<VertexId, double>>> run_all(
    const Scenario& s, PostmortemConfig cfg) {
  StoreAllSink sink(s.spec.count);
  run_postmortem(s.events, s.spec, sink, cfg);
  std::vector<std::vector<std::pair<VertexId, double>>> out;
  out.reserve(s.spec.count);
  for (std::size_t w = 0; w < s.spec.count; ++w) {
    out.push_back(sink.window(w));
  }
  return out;
}

void expect_repeatable(const Scenario& s, const PostmortemConfig& cfg,
                       std::string_view label) {
  const auto a = run_all(s, cfg);
  const auto b = run_all(s, cfg);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t w = 0; w < a.size(); ++w) {
    ASSERT_EQ(a[w].size(), b[w].size()) << label << " window " << w;
    for (std::size_t i = 0; i < a[w].size(); ++i) {
      ASSERT_EQ(a[w][i].first, b[w][i].first) << label;
      ASSERT_EQ(a[w][i].second, b[w][i].second)
          << label << " window " << w << " entry " << i;
    }
  }
}

TEST(Determinism, RepeatedRunsBitwiseIdentical) {
  par::ThreadPool pool(3);
  PostmortemConfig nested;
  nested.pool = &pool;
  nested.mode = ParallelMode::kNested;
  nested.kernel = KernelKind::kSpmm;
  expect_repeatable(Scenario{}, nested, "nested spmm");

  // Window mode on the global pool, where each kernel runs serially. On
  // this input two runs differ in almost every repeat (ROADMAP item 1).
  const Scenario window_input{test::random_events(1605, 70, 5000, 50000),
                              WindowSpec::cover(0, 50000, 9000, 700)};
  for (const KernelKind kernel : {KernelKind::kSpmv, KernelKind::kSpmm}) {
    PostmortemConfig cfg;
    cfg.mode = ParallelMode::kWindow;
    cfg.kernel = kernel;
    cfg.num_multi_windows = 3;
    cfg.vector_length = 8;
    cfg.pr.tol = 1e-10;
    expect_repeatable(window_input, cfg, to_string(kernel));
  }
}

TEST(Determinism, PoolSizeDoesNotChangeResults) {
  Scenario s;
  par::ThreadPool pool1(1);
  par::ThreadPool pool4(4);
  for (const auto mode : {ParallelMode::kWindow, ParallelMode::kPagerank,
                          ParallelMode::kNested}) {
    PostmortemConfig c1;
    c1.pool = &pool1;
    c1.mode = mode;
    PostmortemConfig c4;
    c4.pool = &pool4;
    c4.mode = mode;
    const auto a = run_all(s, c1);
    const auto b = run_all(s, c4);
    for (std::size_t w = 0; w < a.size(); ++w) {
      // Partial-init chunking differs with pool size, so iteration paths
      // differ — but both converge to the same solution within tolerance.
      std::vector<double> da(s.events.num_vertices(), 0.0);
      std::vector<double> db(s.events.num_vertices(), 0.0);
      for (const auto& [v, x] : a[w]) da[v] = x;
      for (const auto& [v, x] : b[w]) db[v] = x;
      ASSERT_LT(test::linf_diff(da, db), 1e-7)
          << "window " << w << " mode " << to_string(mode);
    }
  }
}

TEST(Determinism, SequentialModeIterationCountsStable) {
  Scenario s;
  par::ThreadPool pool(2);
  PostmortemConfig cfg;
  cfg.pool = &pool;
  cfg.mode = ParallelMode::kPagerank;  // windows strictly in order
  NullSink sink;
  const RunResult a = run_postmortem(s.events, s.spec, sink, cfg);
  const RunResult b = run_postmortem(s.events, s.spec, sink, cfg);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.iterations_per_window, b.iterations_per_window);
}

}  // namespace
}  // namespace pmpr
