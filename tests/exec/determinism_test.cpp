// Determinism of the three execution models, and thread-count
// independence of the postmortem driver.
//
// Pull-style kernels sum each vertex's contributions in a fixed order, and
// task partitioning never changes that order. Partial initialization
// chains only between consecutive items of one leaf chunk, and a leaf's
// bounds depend only on the partitioner, the item count, the grain and
// the pool size. The kernels' residual and dangling-mass reductions
// combine one partial per leaf along the fixed split tree. So two runs on
// one pool are bit-identical however their chunks were scheduled: whether
// an item starts from its predecessor never depends on which chunk its
// thread ran before. The offline and streaming kernels reduce their
// residuals along the same kind of tree (DESIGN §6; the ctest
// exec.determinism_repeat runs these suites twenty times). Across pool
// sizes the leaf chunks differ, so the ranks agree only to a tolerance;
// kPagerank mode runs windows strictly in order on one state and keeps
// its iteration counts.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/offline_runner.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
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
  // this input two runs differed in almost every repeat while a chunk's
  // first item could chain from whatever its thread ran before.
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

TEST(Determinism, RepeatedRunsBitwiseIdenticalEveryModeKernelStorage) {
  // The rest of the mode x kernel x storage grid, with partial init on:
  // kPagerank mode's ranks, nested SpMV, and the paged driver, which
  // splits one part's items at a time, in every mode.
  par::ThreadPool pool(3);
  const Scenario s;
  for (const auto mode : {ParallelMode::kWindow, ParallelMode::kPagerank,
                          ParallelMode::kNested}) {
    for (const KernelKind kernel : {KernelKind::kSpmv, KernelKind::kSpmm}) {
      for (const StorageKind storage :
           {StorageKind::kInRam, StorageKind::kOutOfCore}) {
        PostmortemConfig cfg;
        cfg.pool = &pool;
        cfg.mode = mode;
        cfg.kernel = kernel;
        cfg.storage = storage;
        cfg.num_multi_windows = 3;
        cfg.vector_length = 8;
        expect_repeatable(s, cfg,
                          std::string(to_string(mode)) + " " +
                              std::string(to_string(kernel)) + " " +
                              std::string(to_string(storage)));
      }
    }
  }
}

/// A run of any model: its result record and every window's ranks.
struct ModelRun {
  RunResult result;
  std::vector<std::vector<std::pair<VertexId, double>>> ranks;
};

template <typename Model>
ModelRun run_model(const Scenario& s, const Model& model) {
  StoreAllSink sink(s.spec.count);
  ModelRun out{model(sink), {}};
  for (std::size_t w = 0; w < s.spec.count; ++w) {
    out.ranks.push_back(sink.window(w));
  }
  return out;
}

void expect_same_run(const ModelRun& a, const ModelRun& b,
                     std::string_view label) {
  EXPECT_EQ(a.result.iterations_per_window, b.result.iterations_per_window)
      << label;
  ASSERT_EQ(a.result.final_residuals.size(), b.result.final_residuals.size())
      << label;
  for (std::size_t w = 0; w < a.result.final_residuals.size(); ++w) {
    EXPECT_EQ(a.result.final_residuals[w], b.result.final_residuals[w])
        << label << " window " << w;
  }
  EXPECT_EQ(a.ranks, b.ranks) << label;
}

TEST(Determinism, OfflineAndStreamingRepeatBitIdentical) {
  // The other two models with parallel kernels: every residual goes
  // through parallel_reduce, whose split tree is fixed by the range, the
  // options and the pool size, so iterations, residuals and ranks repeat
  // bit for bit. The ∆-push refresh is serial: its frontier pass and
  // certifying sweeps repeat too.
  par::ThreadPool pool(3);
  const Scenario s{test::random_events(907, 2000, 30000, 50000),
                   WindowSpec::cover(0, 50000, 9000, 2500)};
  OfflineOptions offline;
  offline.pool = &pool;
  const auto offline_model = [&](ResultSink& sink) {
    return run_offline(s.events, s.spec, sink, offline);
  };
  expect_same_run(run_model(s, offline_model), run_model(s, offline_model),
                  "offline");
  for (const auto algorithm :
       {StreamingAlgorithm::kWarmRestart, StreamingAlgorithm::kDeltaPush}) {
    StreamingOptions streaming;
    streaming.algorithm = algorithm;
    streaming.pool = &pool;
    const auto streaming_model = [&](ResultSink& sink) {
      return run_streaming(s.events, s.spec, sink, streaming);
    };
    expect_same_run(run_model(s, streaming_model),
                    run_model(s, streaming_model), to_string(algorithm));
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
