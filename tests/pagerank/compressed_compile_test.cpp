// Differential tests for the chunk-streaming compile: a compressed part
// (leased from an out-of-core store whose budget holds every part) must
// yield a bit-identical CompiledBatchCsr and batch state to the raw-CSR
// compile — that equality is what makes the storage kinds interchangeable
// end to end.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/counters.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "par/parallel_for.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

struct Fixture {
  TemporalEdgeList events;
  WindowSpec spec;
  MultiWindowSet raw;
  test::PinnedStore packed;

  explicit Fixture(std::uint64_t seed, std::size_t chunk_entries = 256)
      : events(test::random_events(seed, 60, 4000, 40000)),
        spec(WindowSpec::cover(0, 40000, 9000, 1500)),
        raw(MultiWindowSet::build(events, spec, 2)),
        packed(events, spec, 2, chunk_entries) {}
};

SpmmBatch batch_for(const WindowSpec& spec, std::size_t lanes,
                    std::size_t first, std::size_t stride) {
  SpmmBatch b;
  b.lanes = std::min(lanes, spec.count);
  b.first_window = first;
  b.window_stride = stride;
  return b;
}

void expect_same_batch(const CompiledBatchCsr& a, const CompiledBatchCsr& b) {
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.nbr, b.nbr);
  EXPECT_EQ(a.mask, b.mask);
  EXPECT_EQ(a.active_rows, b.active_rows);
  EXPECT_EQ(a.dangling_rows, b.dangling_rows);
  EXPECT_EQ(a.dangling_mask, b.dangling_mask);
}

void expect_same_spmm_state(const SpmmWindowState& a,
                            const SpmmWindowState& b) {
  EXPECT_EQ(a.out_degree, b.out_degree);
  EXPECT_EQ(a.active_mask, b.active_mask);
  EXPECT_EQ(a.num_active, b.num_active);
}

TEST(CompressedCompile, SpmmBatchBitIdenticalToRaw) {
  const Fixture f(404);
  ASSERT_EQ(f.packed.num_parts(), f.raw.num_parts());
  for (std::size_t p = 0; p < f.raw.num_parts(); ++p) {
    ASSERT_TRUE(f.packed.part(p).is_compressed());
    const SpmmBatch batch = batch_for(f.spec, 8, f.raw.part(p).first_window,
                                      f.raw.part(p).num_windows >= 8 ? 2 : 1);
    SpmmWindowState ref_state;
    CompiledBatchCsr ref;
    compile_spmm_batch(f.raw.part(p), f.spec, batch, ref_state, ref);
    SpmmWindowState state;
    CompiledBatchCsr compiled;
    compile_spmm_batch(f.packed.part(p), f.spec, batch, state, compiled);
    expect_same_batch(compiled, ref);
    expect_same_spmm_state(state, ref_state);
  }
}

TEST(CompressedCompile, SpmmBatchParallelMatchesSerial) {
  const Fixture f(505, /*chunk_entries=*/64);
  const auto& part = f.packed.part(0);
  const SpmmBatch batch = batch_for(f.spec, 16, part.first_window, 1);
  SpmmWindowState ref_state;
  CompiledBatchCsr ref;
  compile_spmm_batch(part, f.spec, batch, ref_state, ref);
  par::ForOptions par_opts;
  SpmmWindowState state;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, batch, state, compiled, &par_opts);
  expect_same_batch(compiled, ref);
  expect_same_spmm_state(state, ref_state);
}

TEST(CompressedCompile, ScratchReuseAcrossBatchesIsClean) {
  const Fixture f(606, /*chunk_entries=*/32);
  const auto& part = f.packed.part(0);
  io::DecodeScratch scratch;
  for (const std::size_t first : {std::size_t{0}, std::size_t{1}}) {
    const SpmmBatch batch = batch_for(f.spec, 4, part.first_window + first, 2);
    SpmmWindowState ref_state;
    CompiledBatchCsr ref;
    compile_spmm_batch(f.raw.part(0), f.spec, batch, ref_state, ref);
    SpmmWindowState state;
    CompiledBatchCsr compiled;
    compile_spmm_batch(part, f.spec, batch, state, compiled, nullptr,
                       &scratch);
    expect_same_batch(compiled, ref);
  }
}

TEST(CompressedCompile, PrunesChunksOutsideTheWindow) {
  // Chunks keep rows whole, so a chunk's time extent is the union of its
  // rows' full time spans — pruning only fires when rows are temporally
  // localized. Give each vertex a narrow per-row time band marching across
  // [0, 4707]: with 8-entry rows and 64-entry chunks, each chunk covers an
  // ~800-wide band, and most bands fall wholly outside the first window
  // (and the late ones outside the two-lane batch's [0, 3000] as well).
  // A one-shot compile indexes only its batch's windows, so it prunes
  // against them.
  TemporalEdgeList events;
  for (VertexId v = 0; v < 48; ++v) {
    for (Timestamp k = 0; k < 8; ++k) {
      events.add(v, (v + 1) % 48, static_cast<Timestamp>(v) * 100 + k);
    }
  }
  events.sort_by_time();
  const WindowSpec spec{0, 2000, 1000, 4};
  const test::PinnedStore packed(events, spec, 1, /*chunk_entries=*/64);
  const MultiWindowSet raw = MultiWindowSet::build(events, spec, 1);
  obs::set_counters_enabled(true);
  const auto expect_pruned = [](const obs::CounterSnapshot& before,
                                const char* label) {
    const obs::CounterSnapshot delta =
        obs::counters_snapshot().delta_since(before);
    EXPECT_GT(delta[obs::Counter::kChunksPruned], 0u) << label;
    EXPECT_GT(delta[obs::Counter::kChunksDecoded], 0u) << label;
  };

  // One window alone, then a batch, which prunes against the union of its
  // lanes' windows. Pruning must not change the result.
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2}}) {
    const SpmmBatch batch = batch_for(spec, lanes, 0, 1);
    const obs::CounterSnapshot before = obs::counters_snapshot();
    SpmmWindowState state;
    CompiledBatchCsr compiled;
    compile_spmm_batch(packed.part(0), spec, batch, state, compiled);
    expect_pruned(before, lanes == 1 ? "window 0" : "batch of windows 0-1");
    SpmmWindowState ref_state;
    CompiledBatchCsr ref;
    compile_spmm_batch(raw.part(0), spec, batch, ref_state, ref);
    expect_same_batch(compiled, ref);
    expect_same_spmm_state(state, ref_state);
  }
}

TEST(CompressedCompile, ReferenceStateComputationRejectsCompressedParts) {
  const Fixture f(909);
  const SpmmBatch batch = batch_for(f.spec, 4, 0, 1);
  SpmmWindowState spmm_state;
  EXPECT_THROW(
      oracle::compute_spmm_state(f.packed.part(0), f.spec, batch, spmm_state),
      InvariantError);
  oracle::WindowState state;
  EXPECT_THROW(oracle::compute_window_state(f.packed.part(0), f.spec.start(0),
                                            f.spec.end(0), state),
               InvariantError);
}

TEST(CompressedCompile, CompressedSetValidatesAndShrinks) {
  const Fixture f(1010);
  ASSERT_EQ(f.packed.num_parts(), f.raw.num_parts());
  for (std::size_t p = 0; p < f.raw.num_parts(); ++p) {
    f.packed.part(p).validate();  // decodes and audits the part
    EXPECT_LT(f.packed.part(p).memory_bytes(), f.raw.part(p).memory_bytes());
    EXPECT_EQ(f.packed.part(p).num_events, f.raw.part(p).num_events);
  }
  EXPECT_EQ(f.packed.store->stats().parts_evicted, 0u);
}

}  // namespace
}  // namespace pmpr
