// Scalar (ctz-loop) SpMM sweep — the always-built fallback and the
// bit-identity reference for the AVX2/AVX-512 kernels. See simd_sweep.hpp
// for the contract.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "pagerank/simd_sweep.hpp"
#include "util/bits.hpp"

namespace pmpr::detail {

namespace {

/// Entries ahead of the current one whose x/deg rows are prefetched: deep
/// enough to cover an L2 miss at the inner loop's pace, shallow enough not
/// to thrash short rows. Shared with the wide kernels (documented in
/// DESIGN.md §5.2).
constexpr std::size_t kPrefetchEntries = 8;

/// Active rows processed per tile; the next tile's row list and offsets
/// are prefetched while the current one is swept, and the tile bounds the
/// x_next write-stream footprint.
constexpr std::size_t kRowTile = 64;

}  // namespace

std::uint64_t spmm_sweep_scalar(const CompiledBatchCsr& compiled,
                                const SpmmWindowState& state, const double* x,
                                double* x_next, const double* base,
                                double one_minus_alpha,
                                std::uint64_t live_mask, double* diff,
                                std::size_t lo, std::size_t hi) {
  const std::size_t lanes = compiled.lanes;
  const std::uint32_t* deg = state.out_degree.data();
  const VertexId* nbr = compiled.nbr.data();
  const std::uint64_t* masks = compiled.mask.data();
  alignas(64) double acc[kMaxSpmmLanes];
  std::uint64_t edges = 0;
  for (std::size_t tile = lo; tile < hi; tile += kRowTile) {
    const std::size_t tile_hi = std::min(hi, tile + kRowTile);
    if (tile_hi < hi) {
      __builtin_prefetch(&compiled.active_rows[tile_hi]);
      __builtin_prefetch(&compiled.row_ptr[compiled.active_rows[tile_hi]]);
    }
    for (std::size_t r = tile; r < tile_hi; ++r) {
      const VertexId v = compiled.active_rows[r];
      const std::uint64_t v_active = state.active_mask[v];
      const std::uint64_t v_update = v_active & live_mask;
      // Frozen (converged) and inactive lanes keep their current value so
      // the buffers can be swapped; accumulate only for live active lanes.
      for (std::size_t k = 0; k < lanes; ++k) acc[k] = base[k];

      if (v_update != 0) {
        const std::size_t e_lo = compiled.row_ptr[v];
        const std::size_t e_hi = compiled.row_ptr[v + 1];
        edges += e_hi - e_lo;
        for (std::size_t i = e_lo; i < e_hi; ++i) {
          if (i + kPrefetchEntries < e_hi) {
            const VertexId up = nbr[i + kPrefetchEntries];
            __builtin_prefetch(&x[static_cast<std::size_t>(up) * lanes]);
            __builtin_prefetch(&deg[static_cast<std::size_t>(up) * lanes]);
          }
          const std::size_t u = nbr[i];
          const double* xu = x + u * lanes;
          const std::uint32_t* du = deg + u * lanes;
          for_each_set_lane(masks[i] & v_update, [&](std::size_t k) {
            acc[k] = std::fma(one_minus_alpha,
                              xu[k] / static_cast<double>(du[k]), acc[k]);
          });
        }
      }

      for (std::size_t k = 0; k < lanes; ++k) {
        const double cur = x[v * lanes + k];
        if (!mask_test(v_active, k)) {
          x_next[v * lanes + k] = 0.0;
        } else if (!mask_test(live_mask, k)) {
          x_next[v * lanes + k] = cur;  // frozen lane
        } else {
          const double next = acc[k];
          diff[k] += std::abs(next - cur);
          x_next[v * lanes + k] = next;
        }
      }
    }
  }
  return edges;
}

}  // namespace pmpr::detail
