#include "exec/postmortem_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/memory_budget.hpp"
#include "obs/counters.hpp"
#include "pagerank/window_state.hpp"
#include "par/parallel_for.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

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

/// Records the order in which windows reach the sink.
class OrderSink final : public ResultSink {
 public:
  void consume_dense(std::size_t window, std::span<const double>) override {
    record(window);
  }
  void consume_mapped(std::size_t window, std::span<const VertexId>,
                      std::span<const double>) override {
    record(window);
  }
  [[nodiscard]] const std::vector<std::size_t>& order() const {
    return order_;
  }

 private:
  void record(std::size_t window) {
    const std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(window);
  }
  std::mutex mu_;
  std::vector<std::size_t> order_;
};

TEST(PostmortemRunner, SpmmBatchesAreAdjacentWindows) {
  // A batch holds adjacent windows, so one kPagerank chain over one part
  // delivers every window in ascending order, the last batch holding the
  // remainder (51 = 6 x 8 + 3).
  const TemporalEdgeList events = test::random_events(31, 60, 6000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 8000, 400);
  ASSERT_EQ(spec.count % 8, 3u);
  PostmortemConfig cfg = base_config();
  cfg.mode = ParallelMode::kPagerank;
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = 8;
  cfg.num_multi_windows = 1;

  OrderSink sink;
  run_postmortem(events, spec, sink, cfg);
  std::vector<std::size_t> ascending(spec.count);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(sink.order(), ascending);
}

/// Vertices with an edge in window w, by brute force.
std::uint64_t active_in_window(const TemporalEdgeList& events,
                               const WindowSpec& spec, std::size_t w) {
  std::set<VertexId> active;
  for (const auto& [u, v] :
       test::brute_window_edges(events, spec.start(w), spec.end(w))) {
    active.insert(u);
    active.insert(v);
  }
  return active.size();
}

/// One kPagerank chain over one part in 8-lane SpMM batches, counters on.
RunResult run_counted_spmm8(const TemporalEdgeList& events,
                            const WindowSpec& spec) {
  PostmortemConfig cfg = base_config();
  cfg.mode = ParallelMode::kPagerank;
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = 8;
  cfg.num_multi_windows = 1;
  const bool counters = obs::set_counters_enabled(true);
  NullSink sink;
  RunResult r = run_postmortem(events, spec, sink, cfg);
  obs::set_counters_enabled(counters);
  return r;
}

TEST(PostmortemRunner, SpmmLanesSeedFromPreviousBatchLastLane) {
  const WindowSpec spec = WindowSpec::cover(0, 20000, 8000, 400);
  {
    // Every window holds the same graph: each timestamp re-emits one fixed
    // edge set. Only the first batch cold-starts; every later lane reuses
    // all its active vertices.
    Xoshiro256 rng(61);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (int e = 0; e < 90; ++e) {
      edges.emplace_back(static_cast<VertexId>(rng.bounded(40)),
                         static_cast<VertexId>(rng.bounded(40)));
    }
    TemporalEdgeList events;
    for (Timestamp t = 0; t <= 20000; t += 100) {
      for (const auto& [u, v] : edges) events.add(u, v, t);
    }
    events.sort_by_time();
    const std::uint64_t active = active_in_window(events, spec, 0);
    const RunResult r = run_counted_spmm8(events, spec);
    EXPECT_EQ(r.counters[obs::Counter::kVerticesReseeded], active * 8);
    EXPECT_EQ(r.counters[obs::Counter::kVerticesReused],
              active * (spec.count - 8));
  }
  {
    // A growing path: edge (e, e+1) appears at time 100·e and then recurs
    // every 100 time units, so each window's vertices include every
    // earlier window's. Seeded from window jL - 1, every lane of batch j
    // reuses all of that window's vertices; seeding lane k from window
    // (j-1)L + k would reuse fewer.
    TemporalEdgeList events;
    for (VertexId e = 0; e < 200; ++e) {
      for (Timestamp t = 100 * static_cast<Timestamp>(e); t <= 20000;
           t += 100) {
        events.add(e, e + 1, t);
      }
    }
    events.sort_by_time();
    std::uint64_t reused = 0;
    std::uint64_t total = 0;
    for (std::size_t w = 0; w < spec.count; ++w) {
      total += active_in_window(events, spec, w);
      if (w >= 8) reused += active_in_window(events, spec, w / 8 * 8 - 1);
    }
    ASSERT_LT(active_in_window(events, spec, 8),
              active_in_window(events, spec, 15));
    const RunResult r = run_counted_spmm8(events, spec);
    EXPECT_EQ(r.counters[obs::Counter::kVerticesReused], reused);
    EXPECT_EQ(r.counters[obs::Counter::kVerticesReseeded], total - reused);
  }
}

TEST(PostmortemRunner, PagedPeakCountsWorkingSet) {
  // Both storage kinds add the same per-context working sets to what they
  // keep resident: the paged peak over its resident payload, vertex maps
  // and the one pinned part's SpMM index equals the in-RAM peak over its
  // representation and every part's index.
  const TemporalEdgeList events = test::random_events(59, 60, 4000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 5000, 900);
  par::ThreadPool pool(2);
  PostmortemConfig cfg = base_config();
  cfg.mode = ParallelMode::kWindow;
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = 16;
  cfg.num_multi_windows = 3;
  cfg.pool = &pool;

  NullSink sink;
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 3);
  const RunResult in_ram = run_postmortem_prebuilt(set, sink, cfg);
  PagedMultiWindowSet::Options opts;
  opts.num_parts = 3;
  const auto paged = PagedMultiWindowSet::build(events, spec, opts);
  const RunResult out_of_core = run_postmortem_paged(*paged, sink, cfg);

  std::size_t vertex_maps = 0;
  std::size_t largest_index = 0;
  std::size_t all_indexes = 0;
  for (std::size_t p = 0; p < paged->num_parts(); ++p) {
    const MultiWindowGraph& meta = paged->part_meta(p);
    vertex_maps += meta.local_to_global.size() * sizeof(VertexId);
    largest_index = std::max(
        largest_index,
        window_run_index_bytes(meta.num_local(), meta.num_events));
    all_indexes += window_run_index_bytes(set.part(p).num_local(),
                                          set.part(p).num_events);
  }
  ASSERT_GT(largest_index, 0u);
  ASSERT_GT(in_ram.peak_memory_bytes,
            in_ram.representation_bytes + all_indexes);
  EXPECT_EQ(out_of_core.peak_memory_bytes -
                (out_of_core.oocore_resident_peak_bytes + vertex_maps +
                 largest_index),
            in_ram.peak_memory_bytes -
                (in_ram.representation_bytes + all_indexes));
}

TEST(PostmortemRunner, PagedSpmmDecodesEachPartOnce) {
  // A paged SpMM run indexes each part it pins in one walk and cuts every
  // batch from that index, so it decodes each chunk with entries exactly
  // once, however many batches the part holds (here 6 parts of at least
  // 4 batches each, on 2 workers).
  const TemporalEdgeList events = test::random_events(67, 60, 5000, 40000);
  const WindowSpec spec = WindowSpec::cover(0, 40000, 6000, 100);
  par::ThreadPool pool(2);
  PostmortemConfig cfg = base_config();
  cfg.mode = ParallelMode::kNested;
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = 16;
  cfg.num_multi_windows = 6;
  cfg.pool = &pool;
  PagedMultiWindowSet::Options opts;
  opts.num_parts = 6;
  opts.target_chunk_entries = 256;
  opts.budget_bytes = 0;
  const auto paged = PagedMultiWindowSet::build(events, spec, opts);

  const bool counters = obs::set_counters_enabled(true);
  NullSink sink;
  const RunResult r = run_postmortem_paged(*paged, sink, cfg);
  obs::set_counters_enabled(counters);

  std::uint64_t chunk_bytes = 0;
  std::uint64_t chunks = 0;
  for (std::size_t p = 0; p < paged->num_parts(); ++p) {
    ASSERT_GT(paged->part_meta(p).num_windows, 3 * cfg.vector_length);
    const auto lease = paged->acquire(p);
    const io::CompressedTemporalCsr& packed = *lease.part().in_compressed;
    for (std::size_t c = 0; c < packed.num_chunks(); ++c) {
      if (packed.chunk(c).num_entries == 0) continue;
      chunk_bytes += packed.chunk(c).byte_size;
      ++chunks;
    }
  }
  ASSERT_GT(chunks, paged->num_parts());
  EXPECT_EQ(r.counters[obs::Counter::kBytesDecoded], chunk_bytes);
  EXPECT_EQ(r.counters[obs::Counter::kChunksDecoded], chunks);
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
