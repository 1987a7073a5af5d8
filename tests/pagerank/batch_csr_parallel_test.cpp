// Parallel-compile race coverage for the two-pass count/prefix/fill builds
// in batch_csr.cpp (the SpMM cut, the SpMV window compile, and the
// oracle's reference scatter), on raw parts and on compressed parts leased
// from the out-of-core store. These tests exist primarily to run under
// ThreadSanitizer — they are registered as their own ctest binary so
// ci/sanitize.sh's TSan pass picks them up by label. The atomicity
// contract they exercise is documented at cut_parallel: row_ptr[v+1] is
// row-owned (plain stores in both paths); out_degree, active_mask and the
// SpMV active flags are cross-row scatters and use std::atomic_ref in the
// parallel path only. The compressed parts add the window compile's
// per-callback decode scratch and chunk-counter flushes.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/window_state.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

struct Built {
  SpmmWindowState state;
  CompiledBatchCsr compiled;
};

Built build(const MultiWindowGraph& part, const WindowSpec& spec,
            const SpmmBatch& batch, const par::ForOptions* parallel) {
  Built b;
  compile_spmm_batch(part, spec, batch, b.state, b.compiled, parallel);
  return b;
}

void expect_equal(const Built& ref, const Built& par) {
  EXPECT_EQ(ref.state.lanes, par.state.lanes);
  EXPECT_EQ(ref.state.out_degree, par.state.out_degree);
  EXPECT_EQ(ref.state.active_mask, par.state.active_mask);
  EXPECT_EQ(ref.state.num_active, par.state.num_active);
  EXPECT_EQ(ref.compiled.row_ptr, par.compiled.row_ptr);
  EXPECT_EQ(ref.compiled.nbr, par.compiled.nbr);
  EXPECT_EQ(ref.compiled.mask, par.compiled.mask);
  EXPECT_EQ(ref.compiled.active_rows, par.compiled.active_rows);
  EXPECT_EQ(ref.compiled.dangling_rows, par.compiled.dangling_rows);
  EXPECT_EQ(ref.compiled.dangling_mask, par.compiled.dangling_mask);
}

TEST(BatchCsrParallel, CompileMatchesSerialAcrossLaneCounts) {
  const TemporalEdgeList events = test::random_events(7001, 60, 4000, 50000);
  const WindowSpec spec{.t0 = 0, .delta = 6000, .sw = 45, .count = 1100};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  // Small chunks so the compressed part's chunk-parallel passes split too.
  const test::PinnedStore packed(events, spec, 1, /*chunk_entries=*/64);
  // Fine grain to force many chunks (and thus real concurrency under
  // TSan) even on small row counts.
  par::ForOptions opts{par::Partitioner::kSimple, 1, nullptr};
  for (const MultiWindowGraph* part : {&set.part(0), &packed.part(0)}) {
    // The wider batches stride over the whole time range, so most rows
    // scatter into the atomic masks.
    for (const auto& [lanes, stride] :
         {std::pair<std::size_t, std::size_t>{16, 1}, {33, 33}, {63, 17},
          {64, 17}}) {
      SpmmBatch batch;
      batch.lanes = lanes;
      batch.first_window = 0;
      batch.window_stride = stride;
      const Built ref = build(*part, spec, batch, nullptr);
      const Built par = build(*part, spec, batch, &opts);
      expect_equal(ref, par);
    }
  }
}

TEST(BatchCsrParallel, WindowCompileMatchesSerial) {
  const TemporalEdgeList events = test::random_events(7304, 60, 4000, 50000);
  const WindowSpec spec = WindowSpec::cover(0, 50000, 9000, 4000);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const test::PinnedStore packed(events, spec, 1, /*chunk_entries=*/64);
  par::ForOptions opts{par::Partitioner::kSimple, 1, nullptr};
  for (const MultiWindowGraph* part : {&set.part(0), &packed.part(0)}) {
    for (std::size_t w = 0; w < spec.count; ++w) {
      WindowState ref_state;
      CompiledWindowCsr ref;
      compile_window(*part, spec.start(w), spec.end(w), ref_state, ref);
      WindowState state;
      CompiledWindowCsr compiled;
      compile_window(*part, spec.start(w), spec.end(w), state, compiled,
                     &opts);
      EXPECT_EQ(state.out_degree, ref_state.out_degree) << "window " << w;
      EXPECT_EQ(state.active, ref_state.active) << "window " << w;
      EXPECT_EQ(state.num_active, ref_state.num_active) << "window " << w;
      EXPECT_EQ(compiled.row_ptr, ref.row_ptr) << "window " << w;
      EXPECT_EQ(compiled.nbr, ref.nbr) << "window " << w;
      EXPECT_EQ(compiled.active_rows, ref.active_rows) << "window " << w;
      EXPECT_EQ(compiled.dangling_rows, ref.dangling_rows) << "window " << w;
    }
  }
}

TEST(BatchCsrParallel, ComputeSpmmStateMatchesSerial) {
  const TemporalEdgeList events = test::random_events(7102, 40, 3000, 20000);
  const WindowSpec spec{.t0 = 0, .delta = 2500, .sw = 60, .count = 300};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  par::ForOptions opts{par::Partitioner::kSimple, 1, nullptr};
  SpmmBatch batch;
  batch.lanes = 60;
  batch.first_window = 0;
  batch.window_stride = 5;
  SpmmWindowState ref;
  oracle::compute_spmm_state(part, spec, batch, ref);
  SpmmWindowState par;
  oracle::compute_spmm_state(part, spec, batch, par, &opts);
  EXPECT_EQ(ref.out_degree, par.out_degree);
  EXPECT_EQ(ref.active_mask, par.active_mask);
  EXPECT_EQ(ref.num_active, par.num_active);
}

TEST(BatchCsrParallel, RepeatedParallelCompilesAreDeterministic) {
  const TemporalEdgeList events = test::random_events(7203, 50, 3500, 30000);
  const WindowSpec spec{.t0 = 0, .delta = 4000, .sw = 220, .count = 120};
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  const auto& part = set.part(0);
  par::ForOptions opts{par::Partitioner::kAuto, 2, nullptr};
  SpmmBatch batch;
  batch.lanes = 60;
  batch.first_window = 0;
  batch.window_stride = 2;
  const Built first = build(part, spec, batch, &opts);
  for (int round = 0; round < 3; ++round) {
    const Built again = build(part, spec, batch, &opts);
    expect_equal(first, again);
  }
}

}  // namespace
}  // namespace pmpr
