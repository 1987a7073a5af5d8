#include "exec/postmortem_runner.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "pagerank/window_state.hpp"
#include "par/parallel_for.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

PostmortemConfig base_config() {
  PostmortemConfig cfg;
  cfg.pr.tol = 1e-12;
  cfg.pr.max_iters = 500;
  return cfg;
}

/// The full configuration matrix: mode x kernel x partitioner x partial-init
/// x #multi-windows. Every cell must produce the brute-force PageRank for
/// every window — the paper's execution parameters are performance knobs,
/// never correctness knobs.
using Cell = std::tuple<ParallelMode, KernelKind, par::Partitioner, bool,
                        std::size_t>;

class PostmortemMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(PostmortemMatrix, MatchesBruteForceEverywhere) {
  const auto [mode, kernel, partitioner, partial, parts] = GetParam();
  const TemporalEdgeList events = test::random_events(23, 40, 2500, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 900);

  PostmortemConfig cfg = base_config();
  cfg.mode = mode;
  cfg.kernel = kernel;
  cfg.partitioner = partitioner;
  cfg.partial_init = partial;
  cfg.num_multi_windows = parts;
  cfg.vector_length = 8;
  cfg.grain = 2;

  StoreAllSink sink(spec.count);
  const RunResult r = run_postmortem(events, spec, sink, cfg);
  EXPECT_EQ(r.num_windows, spec.count);

  for (std::size_t w = 0; w < spec.count; ++w) {
    const auto got = sink.dense(w, events.num_vertices());
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(events, spec.start(w), spec.end(w)),
        events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(got, ref), 1e-8)
        << "window " << w << " mode=" << to_string(mode)
        << " kernel=" << to_string(kernel)
        << " partitioner=" << to_string(partitioner)
        << " partial=" << partial << " parts=" << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, PostmortemMatrix,
    ::testing::Combine(
        ::testing::Values(ParallelMode::kWindow, ParallelMode::kPagerank,
                          ParallelMode::kNested),
        ::testing::Values(KernelKind::kSpmv, KernelKind::kSpmm),
        ::testing::Values(par::Partitioner::kAuto, par::Partitioner::kSimple,
                          par::Partitioner::kStatic),
        ::testing::Values(false, true),
        ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& pinfo) {
      return std::string(to_string(std::get<0>(pinfo.param))) + "_" +
             std::string(to_string(std::get<1>(pinfo.param))) + "_" +
             std::string(to_string(std::get<2>(pinfo.param))) +
             (std::get<3>(pinfo.param) ? "_partial" : "_full") + "_Y" +
             std::to_string(std::get<4>(pinfo.param));
    });

TEST(PostmortemRunner, RunsInsideATaskOfAnotherPool) {
  // Runs started from the workers of another, larger pool lease their
  // states from the same free list as any thread of cfg.pool, and 16 of
  // them at once give the ranks of a run from the test thread.
  const TemporalEdgeList events = test::random_events(29, 40, 2500, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 900);
  par::ThreadPool one(1);
  par::ThreadPool outer(8);
  for (const auto mode : {ParallelMode::kWindow, ParallelMode::kPagerank,
                          ParallelMode::kNested}) {
    PostmortemConfig cfg = base_config();
    cfg.mode = mode;
    cfg.pool = &one;
    StoreAllSink expected(spec.count);
    run_postmortem(events, spec, expected, cfg);

    std::vector<StoreAllSink> got(16, StoreAllSink(spec.count));
    par::parallel_for(0, got.size(), {par::Partitioner::kSimple, 1, &outer},
                      [&](std::size_t i) {
                        run_postmortem(events, spec, got[i], cfg);
                      });
    for (std::size_t i = 0; i < got.size(); ++i) {
      for (std::size_t w = 0; w < spec.count; ++w) {
        ASSERT_EQ(got[i].window(w), expected.window(w))
            << to_string(mode) << " run " << i << " window " << w;
      }
    }
  }
}

TEST(PostmortemRunner, PartialInitReducesTotalIterations) {
  // Heavily overlapping windows so successive graphs are similar.
  const TemporalEdgeList events = test::random_events(29, 60, 6000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 8000, 400);

  PostmortemConfig with = base_config();
  with.mode = ParallelMode::kPagerank;
  with.kernel = KernelKind::kSpmv;
  with.partial_init = true;
  with.num_multi_windows = 1;
  PostmortemConfig without = with;
  without.partial_init = false;

  NullSink sink;
  const RunResult rw = run_postmortem(events, spec, sink, with);
  const RunResult ro = run_postmortem(events, spec, sink, without);
  EXPECT_LT(rw.total_iterations, ro.total_iterations);
}

TEST(PostmortemRunner, SpmmStridedBatchesPreservePartialInitGains) {
  // §4.4: with strided batch picking, only the first batch cold-starts, so
  // SpMM with partial init needs far fewer iterations than without.
  const TemporalEdgeList events = test::random_events(31, 60, 6000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 8000, 400);

  PostmortemConfig with = base_config();
  with.mode = ParallelMode::kPagerank;
  with.kernel = KernelKind::kSpmm;
  with.vector_length = 8;
  with.partial_init = true;
  with.num_multi_windows = 1;
  PostmortemConfig without = with;
  without.partial_init = false;

  NullSink sink;
  const RunResult rw = run_postmortem(events, spec, sink, with);
  const RunResult ro = run_postmortem(events, spec, sink, without);
  EXPECT_LT(rw.total_iterations, ro.total_iterations);
}

TEST(PostmortemRunner, PrebuiltMatchesFromEvents) {
  const TemporalEdgeList events = test::random_events(37, 40, 2000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 3000, 800);
  PostmortemConfig cfg = base_config();
  cfg.num_multi_windows = 3;

  StoreAllSink a(spec.count);
  run_postmortem(events, spec, a, cfg);

  const MultiWindowSet set = MultiWindowSet::build(events, spec, 3);
  StoreAllSink b(spec.count);
  run_postmortem_prebuilt(set, b, cfg);

  for (std::size_t w = 0; w < spec.count; ++w) {
    ASSERT_LT(test::linf_diff(a.dense(w, events.num_vertices()),
                              b.dense(w, events.num_vertices())),
              1e-12);
  }
}

TEST(PostmortemRunner, VectorLengthOneEqualsSpmv) {
  const TemporalEdgeList events = test::random_events(41, 40, 2000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 3000, 800);
  PostmortemConfig spmm = base_config();
  spmm.kernel = KernelKind::kSpmm;
  spmm.vector_length = 1;
  PostmortemConfig spmv = base_config();
  spmv.kernel = KernelKind::kSpmv;

  StoreAllSink a(spec.count);
  StoreAllSink b(spec.count);
  run_postmortem(events, spec, a, spmm);
  run_postmortem(events, spec, b, spmv);
  for (std::size_t w = 0; w < spec.count; ++w) {
    ASSERT_LT(test::linf_diff(a.dense(w, events.num_vertices()),
                              b.dense(w, events.num_vertices())),
              1e-10);
  }
}

TEST(PostmortemRunner, LargeVectorLengthClamped) {
  const TemporalEdgeList events = test::random_events(43, 30, 1000, 5000);
  const WindowSpec spec = WindowSpec::cover(0, 5000, 1500, 500);
  PostmortemConfig cfg = base_config();
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = 4096;  // > windows and > 64: must be clamped safely
  StoreAllSink sink(spec.count);
  const RunResult r = run_postmortem(events, spec, sink, cfg);
  EXPECT_EQ(r.num_windows, spec.count);
  for (std::size_t w = 0; w < spec.count; ++w) {
    const auto ref = test::brute_pagerank(
        test::brute_window_edges(events, spec.start(w), spec.end(w)),
        events.num_vertices(), 0.15, 1e-12, 500);
    ASSERT_LT(test::linf_diff(sink.dense(w, events.num_vertices()), ref),
              1e-8);
  }
  // The memory estimate counts the lanes the batches ran with.
  cfg.vector_length = kMaxSpmmLanes;
  NullSink capped;
  EXPECT_EQ(run_postmortem(events, spec, capped, cfg).peak_memory_bytes,
            r.peak_memory_bytes);
}

TEST(PostmortemRunner, ChecksumSinkMatchesStoreAll) {
  const TemporalEdgeList events = test::random_events(47, 40, 2000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 3000, 800);
  const PostmortemConfig cfg = base_config();
  StoreAllSink all(spec.count);
  ChecksumSink sums(spec.count);
  run_postmortem(events, spec, all, cfg);
  run_postmortem(events, spec, sums, cfg);
  for (std::size_t w = 0; w < spec.count; ++w) {
    double weighted = 0.0;
    for (const auto& [v, pr] : all.window(w)) {
      weighted += pr * static_cast<double>(v + 1);
    }
    ASSERT_NEAR(sums.weighted()[w], weighted, 1e-9) << "window " << w;
  }
}

TEST(PostmortemRunner, BuildTimeSeparatedFromCompute) {
  const TemporalEdgeList events = test::random_events(53, 40, 3000, 10000);
  const WindowSpec spec = WindowSpec::cover(0, 10000, 3000, 400);
  NullSink sink;
  const RunResult r = run_postmortem(events, spec, sink, base_config());
  EXPECT_GT(r.build_seconds, 0.0);
  EXPECT_GT(r.compute_seconds, 0.0);
}

}  // namespace
}  // namespace pmpr
