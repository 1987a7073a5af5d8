// Batch-compiled adjacency: the per-iteration-invariant structure of an
// SpMM batch (one window for the kSpmv kernel's one-lane batches) compiled
// into the representation once.
//
// The reference kernels (kept as a test oracle under tests/oracle/)
// re-derive each event's lane membership (lanes_containing ->
// WindowSpec::windows_containing) and re-scan duplicate <neighbor, time>
// runs on every edge of every power iteration, and sweep all n rows even
// when the batch touches a fraction of them.
// All of that depends only on (part, spec, batch) — never on the iterate —
// so it is hoisted out of the iterations in two steps:
//
//   * the window-run index, once per part: one walk over the part's rows
//     (one decode per chunk when the part is paged) turns each
//     <neighbor, time> run into the ranges of windows its events fall in.
//     This is the only step that does timestamp arithmetic;
//   * the cut, once per batch: per row, the *distinct* in-neighbors, each
//     with the lane mask ORed from its run's window ranges (runs whose
//     mask is zero are dropped entirely), in a flat SoA layout
//     (nbr[] / mask[]). Active-row compaction: sweeps iterate active_rows
//     — rows active in at least one lane — instead of all n rows. Dangling
//     compaction: the per-iteration dangling-mass scan reads the
//     dangling_rows / dangling_mask lists (vertices dangling in at least
//     one lane) instead of rescanning the n-by-lanes degree matrix.
//
// The SpMM inner loop then becomes: load u, load its mask, AND the live
// mask, fused multiply-add per set bit — no timestamp arithmetic. The
// compiled kernels (scalar and the AVX2/AVX-512 sweeps of
// simd_sweep_*.cpp) execute the exact floating-point operations of the
// reference kernels with the same per-lane order, so results, residuals,
// and iteration counts are bit-identical when run serially
// (tests/pagerank/oracle_differential_test.cpp). A cut equals the
// oracle's per-event compile bit for bit
// (tests/pagerank/window_run_index_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "pagerank/window_state.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

/// Compiled form of one SpMM batch over a part's local vertex space.
struct CompiledBatchCsr {
  std::size_t lanes = 0;

  /// n + 1 offsets into nbr and mask. A row holds the distinct
  /// in-neighbors (ascending, inherited from the temporal CSR's row order)
  /// whose run intersects at least one lane's window.
  std::vector<std::size_t> row_ptr;
  std::vector<VertexId> nbr;
  /// One lane mask per nbr entry; never zero.
  std::vector<std::uint64_t> mask;

  /// Rows v active in at least one lane, ascending. Sweeps visit only
  /// these.
  std::vector<VertexId> active_rows;

  /// Rows dangling (active with out-degree 0) in at least one lane,
  /// ascending, with the mask of those lanes.
  std::vector<VertexId> dangling_rows;
  std::vector<std::uint64_t> dangling_mask;

  [[nodiscard]] std::size_t num_rows() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  [[nodiscard]] std::span<const VertexId> row_nbr(VertexId v) const {
    return {nbr.data() + row_ptr[v], nbr.data() + row_ptr[v + 1]};
  }
  [[nodiscard]] std::span<const std::uint64_t> row_mask(VertexId v) const {
    return {mask.data() + row_ptr[v], mask.data() + row_ptr[v + 1]};
  }
};

/// One record of a WindowRunIndex: the windows [lo, hi) (relative to the
/// index's first window) that at least one event of a <neighbor, time>
/// run falls in. A run whose windows have a gap gets one record per range;
/// the records after its first carry nbr == kSameRun.
struct WindowRun {
  VertexId nbr;
  std::uint32_t lo;
  std::uint32_t hi;
};

// window_run_index_bytes (graph/memory_budget.hpp) counts 12 B a record.
static_assert(sizeof(WindowRun) == 12);

/// `WindowRun::nbr` of a record that continues the run of the record
/// before it. kInvalidVertex is never a neighbor (graph/types.hpp).
inline constexpr VertexId kSameRun = kInvalidVertex;

/// The window-run index of a part over the windows [first_window,
/// first_window + num_windows): per local row, its runs in row order, each
/// as one or more WindowRun records. Runs with no event in those windows
/// have no record. Run boundaries are kept, so two runs of one neighbor in
/// an unsorted row stay two runs. There are never more records than the
/// part's stored events, so the index costs at most
/// window_run_index_bytes (graph/memory_budget.hpp).
struct WindowRunIndex {
  std::size_t first_window = 0;
  std::size_t num_windows = 0;
  std::vector<std::size_t> row_ptr;  ///< n + 1 offsets into runs.
  std::vector<WindowRun> runs;

  [[nodiscard]] std::size_t num_rows() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
};

/// Rebuilds `out` as `part`'s index over windows [first_window,
/// first_window + num_windows) in one serial walk over its rows, reusing
/// out's buffers. A compressed part (the paged store's leases,
/// part.is_compressed()) is decoded one chunk at a time into `scratch`
/// (null uses a local) — the raw CSR is never materialized — and chunks
/// whose time extent misses those windows are skipped (obs kChunksDecoded
/// / kChunksPruned / kBytesDecoded). Throws InvariantError when the window
/// count does not fit the u32 records.
void build_window_run_index(const MultiWindowGraph& part,
                            const WindowSpec& spec, std::size_t first_window,
                            std::size_t num_windows, WindowRunIndex& out,
                            io::DecodeScratch* scratch = nullptr);

/// Cuts `batch` from `index`: builds `state` and `out` together, each
/// run's lane mask the OR of its records' lane ranges, with no timestamp
/// arithmetic. `state` after the call is identical to what the reference
/// scatter (the test oracle's compute_spmm_state) produces, and `out` to
/// the oracle's per-event compile. Every lane's window must lie in the
/// index's windows, and batch.lanes in [1, kMaxSpmmLanes]; otherwise
/// throws InvariantError. When `parallel` is null, or its row loop would
/// run as one chunk, the cut is one serial pass with plain degree
/// increments; otherwise it counts and scatters (atomically), prefix-sums
/// and fills as two parallel passes over the rows.
void compile_spmm_batch(const WindowRunIndex& index, const SpmmBatch& batch,
                        SpmmWindowState& state, CompiledBatchCsr& out,
                        const par::ForOptions* parallel = nullptr);

/// One-shot compile: indexes `part` over the batch's own windows
/// [first_window, window_of_lane(lanes - 1)] (so a compressed part prunes
/// the chunks outside them), then cuts the batch from that index.
void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out,
                        const par::ForOptions* parallel = nullptr,
                        io::DecodeScratch* scratch = nullptr);

}  // namespace pmpr
