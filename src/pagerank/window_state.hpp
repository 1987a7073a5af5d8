// Per-window derived state over a multi-window graph's local vertex space:
// distinct out-degrees and the active vertex set, computed by one scatter
// pass over the reverse temporal CSR. Computed once per window (or once per
// SpMM batch for all lanes together, by compile_spmm_batch's cut in
// pagerank/batch_csr.hpp) and reused across power iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "par/parallel_for.hpp"
#include "util/bits.hpp"

namespace pmpr {

/// State of one window (SpMV path).
struct WindowState {
  std::vector<std::uint32_t> out_degree;  ///< Distinct out-neighbors, local.
  std::vector<std::uint8_t> active;  ///< 1 iff vertex has an edge in window.
  std::size_t num_active = 0;

  void resize(std::size_t n) {
    out_degree.assign(n, 0);
    active.assign(n, 0);
    num_active = 0;
  }
};

/// Computes degrees/activity for window [ts, te] of `part`. If `parallel`
/// is non-null the scatter runs as a parallel_for (atomic increments).
void compute_window_state(const MultiWindowGraph& part, Timestamp ts,
                          Timestamp te, WindowState& out,
                          const par::ForOptions* parallel = nullptr);

/// Widest SpMM batch the kernels support: a lane mask is one
/// std::uint64_t (util/bits.hpp). The vector-length ablation's 64 lanes
/// are the widest batch any experiment runs (DESIGN.md §5.2).
inline constexpr std::size_t kMaxSpmmLanes = 64;

/// State of an SpMM batch: `lanes` windows processed simultaneously.
/// Lane k corresponds to global window `first_window + k * window_stride`.
/// The postmortem runner's batches are adjacent windows (stride 1); the
/// kernels take any stride.
struct SpmmBatch {
  std::size_t lanes = 0;
  std::size_t first_window = 0;
  std::size_t window_stride = 1;

  [[nodiscard]] std::size_t window_of_lane(std::size_t k) const {
    return first_window + k * window_stride;
  }
};

/// Lane-interleaved degrees (deg[v*lanes + k]) plus one activity mask word
/// per vertex, bit k naming lane k.
struct SpmmWindowState {
  std::size_t lanes = 0;
  std::vector<std::uint32_t> out_degree;   ///< n * lanes, lane-interleaved.
  std::vector<std::uint64_t> active_mask;  ///< n, one word per vertex.
  std::vector<std::size_t> num_active;     ///< per lane.

  /// v's mask word, by pointer: perfbench/round.cpp reads it as
  /// `mask_of(v)[k / 64]`.
  [[nodiscard]] const std::uint64_t* mask_of(std::size_t v) const {
    return active_mask.data() + v;
  }

  void resize(std::size_t n, std::size_t num_lanes) {
    lanes = num_lanes;
    out_degree.assign(n * num_lanes, 0);
    active_mask.assign(n, 0);
    num_active.assign(num_lanes, 0);
  }
};

}  // namespace pmpr
