// Differential tests for the window-run index (pagerank/batch_csr.hpp):
// every batch cut from a whole-part index must equal the test oracle's
// per-event compile (oracle::compile_spmm_batch) bit for bit — compiled
// rows, masks, compaction lists, degrees, activity and per-lane counts —
// on raw and compressed parts, for every lane count and stride the
// kernels take, serially, in parallel and on a one-thread pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

void expect_same(const SpmmWindowState& state, const CompiledBatchCsr& got,
                 const SpmmWindowState& want_state,
                 const CompiledBatchCsr& want) {
  EXPECT_EQ(got.lanes, want.lanes);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.nbr, want.nbr);
  EXPECT_EQ(got.mask, want.mask);
  EXPECT_EQ(got.active_rows, want.active_rows);
  EXPECT_EQ(got.dangling_rows, want.dangling_rows);
  EXPECT_EQ(got.dangling_mask, want.dangling_mask);
  EXPECT_EQ(state.lanes, want_state.lanes);
  EXPECT_EQ(state.out_degree, want_state.out_degree);
  EXPECT_EQ(state.active_mask, want_state.active_mask);
  EXPECT_EQ(state.num_active, want_state.num_active);
}

std::size_t same_run_records(const WindowRunIndex& index) {
  std::size_t n = 0;
  for (const WindowRun& r : index.runs) n += r.nbr == kSameRun ? 1 : 0;
  return n;
}

/// Cuts every batch of lanes {1, 2, 7, 16, 33, 63, 64} and strides {1, 3}
/// whose windows lie in `part` from the part's whole index, serially, in
/// parallel and on a one-thread pool, and compares each with the oracle.
/// Returns the number of batches compared.
std::size_t expect_cuts_match_oracle(const MultiWindowGraph& part,
                                     const WindowSpec& spec) {
  WindowRunIndex index;
  build_window_run_index(part, spec, part.first_window, part.num_windows,
                         index);
  EXPECT_LE(index.runs.size(), part.num_events);
  par::ThreadPool three(3);
  par::ThreadPool one(1);
  const par::ForOptions split{par::Partitioner::kSimple, 1, &three};
  const par::ForOptions single{par::Partitioner::kSimple, 1, &one};
  const std::size_t end = part.first_window + part.num_windows;
  std::size_t compared = 0;
  for (const std::size_t lanes : {1, 2, 7, 16, 33, 63, 64}) {
    for (const std::size_t stride : {1, 3}) {
      const std::size_t reach = (lanes - 1) * stride;
      for (std::size_t first = part.first_window; first + reach < end;
           first += 5) {
        SCOPED_TRACE(::testing::Message() << "lanes " << lanes << " stride "
                                          << stride << " first " << first);
        const SpmmBatch batch{lanes, first, stride};
        SpmmWindowState want_state;
        CompiledBatchCsr want;
        oracle::compile_spmm_batch(part, spec, batch, want_state, want);
        for (const par::ForOptions* opts :
             {static_cast<const par::ForOptions*>(nullptr), &split,
              &single}) {
          SpmmWindowState state;
          CompiledBatchCsr got;
          compile_spmm_batch(index, batch, state, got, opts);
          expect_same(state, got, want_state, want);
        }
        ++compared;
      }
    }
  }
  return compared;
}

TEST(WindowRunIndex, CutsMatchOracleOnRawPart) {
  // 12 vertices make long <neighbor, time> runs, and narrow windows give
  // many of them gaps.
  const TemporalEdgeList events = test::random_events(1301, 12, 3000, 40000);
  const WindowSpec spec = WindowSpec::cover(0, 40000, 900, 400);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  WindowRunIndex index;
  build_window_run_index(set.part(0), spec, 0, spec.count, index);
  EXPECT_GT(same_run_records(index), 0u) << "no run with a window gap";
  EXPECT_GT(expect_cuts_match_oracle(set.part(0), spec), 0u);
}

TEST(WindowRunIndex, CutsMatchOracleOnCompressedParts) {
  const TemporalEdgeList events = test::random_events(1302, 20, 4000, 40000);
  const WindowSpec spec = WindowSpec::cover(0, 40000, 2500, 300);
  const test::PinnedStore packed(events, spec, 2, /*chunk_entries=*/64);
  for (std::size_t p = 0; p < packed.num_parts(); ++p) {
    ASSERT_TRUE(packed.part(p).is_compressed());
    EXPECT_GT(expect_cuts_match_oracle(packed.part(p), spec), 0u);
  }
}

TEST(WindowRunIndex, CutsMatchOracleWhenEventsFallBetweenWindows) {
  // sw > delta + 1: an event in (end(i), start(i + 1)) is in no window.
  const TemporalEdgeList events = test::random_events(1303, 16, 3000, 40000);
  const WindowSpec spec{.t0 = 0, .delta = 250, .sw = 500, .count = 80};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  EXPECT_GT(expect_cuts_match_oracle(set.part(0), spec), 0u);
}

TEST(WindowRunIndex, CutsMatchOracleOnWindowBoundaries) {
  // Every event sits on a window's first or last instant, or one past it.
  const WindowSpec spec{.t0 = 1000, .delta = 700, .sw = 300, .count = 90};
  Xoshiro256 rng(1304);
  TemporalEdgeList events;
  for (int e = 0; e < 3000; ++e) {
    const std::size_t w = rng.bounded(spec.count);
    const Timestamp edge[] = {spec.start(w), spec.end(w), spec.start(w) - 1,
                              spec.end(w) + 1};
    events.add(static_cast<VertexId>(rng.bounded(14)),
               static_cast<VertexId>(rng.bounded(14)), edge[rng.bounded(4)]);
  }
  events.sort_by_time();
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 3);
  for (std::size_t p = 0; p < set.num_parts(); ++p) {
    EXPECT_GT(expect_cuts_match_oracle(set.part(p), spec), 0u);
  }
}

TEST(WindowRunIndex, UnsortedRowKeepsRunBoundaries) {
  // Row 0 holds neighbor 1 twice, split by neighbor 2, with unsorted
  // times; row 1 holds one run of neighbor 0 whose windows have a gap.
  const WindowSpec spec{.t0 = 0, .delta = 150, .sw = 100, .count = 70};
  MultiWindowGraph part;
  part.first_window = 0;
  part.num_windows = spec.count;
  part.span_start = spec.start(0);
  part.span_end = spec.end(spec.count - 1);
  part.local_to_global = {0, 1, 2};
  part.in = TemporalCsr::adopt({0, 6, 9, 9}, {1, 1, 2, 2, 1, 1, 0, 0, 0},
                               {2500, 300, 5000, 200, 6100, 6050, 120, 140,
                                4000});
  part.num_events = 9;
  WindowRunIndex index;
  build_window_run_index(part, spec, 0, spec.count, index);
  ASSERT_EQ(index.row_ptr.size(), 4u);
  // Row 0: neighbor 1 (two ranges, the second kSameRun), neighbor 2 (two
  // ranges), neighbor 1 again (one range: 6100 and 6050 share windows).
  std::vector<VertexId> row0;
  for (std::size_t i = index.row_ptr[0]; i < index.row_ptr[1]; ++i) {
    row0.push_back(index.runs[i].nbr);
  }
  EXPECT_EQ(row0, (std::vector<VertexId>{1, kSameRun, 2, kSameRun, 1}));
  // Row 1: 120 and 140 share windows 0-1, 4000 is in windows 39-40.
  ASSERT_EQ(index.row_ptr[2] - index.row_ptr[1], 2u);
  EXPECT_EQ(index.runs[index.row_ptr[1]].nbr, 0u);
  EXPECT_EQ(index.runs[index.row_ptr[1] + 1].nbr, kSameRun);
  EXPECT_GT(expect_cuts_match_oracle(part, spec), 0u);

  // The cut keeps neighbor 1's two runs as two entries, as the oracle does.
  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(index, SpmmBatch{64, 0, 1}, state, compiled);
  const auto nbr = compiled.row_nbr(0);
  EXPECT_EQ(std::vector<VertexId>(nbr.begin(), nbr.end()),
            (std::vector<VertexId>{1, 2, 1}));
}

TEST(WindowRunIndex, OneShotCompileIndexesTheBatchWindows) {
  const TemporalEdgeList events = test::random_events(1306, 20, 3000, 40000);
  const WindowSpec spec = WindowSpec::cover(0, 40000, 2500, 300);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const SpmmBatch batch{16, 40, 3};
  SpmmWindowState want_state;
  CompiledBatchCsr want;
  oracle::compile_spmm_batch(set.part(0), spec, batch, want_state, want);
  SpmmWindowState state;
  CompiledBatchCsr got;
  compile_spmm_batch(set.part(0), spec, batch, state, got);
  expect_same(state, got, want_state, want);
}

TEST(WindowRunIndex, RejectsBatchesOutsideTheIndex) {
  const TemporalEdgeList events = test::random_events(1307, 20, 2000, 20000);
  const WindowSpec spec = WindowSpec::cover(0, 20000, 2500, 300);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  WindowRunIndex index;
  build_window_run_index(set.part(0), spec, 10, 20, index);
  SpmmWindowState state;
  CompiledBatchCsr compiled;
  EXPECT_THROW(compile_spmm_batch(index, SpmmBatch{4, 9, 1}, state, compiled),
               InvariantError);
  EXPECT_THROW(compile_spmm_batch(index, SpmmBatch{4, 21, 3}, state, compiled),
               InvariantError);
  EXPECT_THROW(compile_spmm_batch(index, SpmmBatch{0, 10, 1}, state, compiled),
               InvariantError);
  EXPECT_NO_THROW(
      compile_spmm_batch(index, SpmmBatch{4, 20, 3}, state, compiled));
}

}  // namespace
}  // namespace pmpr
