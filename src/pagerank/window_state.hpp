// Per-batch derived state over a multi-window graph's local vertex space:
// lane-interleaved distinct out-degrees and one activity mask word per
// vertex, built for all lanes of a batch together by compile_spmm_batch's
// cut (pagerank/batch_csr.hpp) and reused across power iterations. The
// kSpmv kernel's windows are batches of one lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pmpr {

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
