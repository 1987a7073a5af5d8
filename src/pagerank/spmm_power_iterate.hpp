// The SpMM power-iteration driver (§4.4) shared by the compiled SpMM kernel
// (spmm_temporal.cpp) and the reference SpMM kernel kept as a test oracle.
// It owns lane liveness, the per-lane teleport + dangling base term, lane
// freezing on convergence, residual recording and the buffer swap; a kernel
// supplies only its dangling scan and its sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/window_state.hpp"
#include "util/bits.hpp"

namespace pmpr {

/// Per-lane double accumulators, sized `lanes` at runtime.
using LaneVec = std::vector<double>;

inline LaneVec add_lanes(LaneVec a, const LaneVec& b) {
  for (std::size_t k = 0; k < a.size(); ++k) a[k] += b[k];
  return a;
}

/// Runs the power iterations of one SpMM batch: `DanglingFn(cur,
/// live_mask)` returns the per-lane dangling mass, `SweepFn(cur, next,
/// base, live_mask, diff)` runs one full sweep (serial or parallel).
/// `live_mask` is the std::uint64_t mask of the lanes still iterating.
template <typename DanglingFn, typename SweepFn>
SpmmStats power_iterate(std::size_t n, std::size_t lanes,
                        std::span<const std::size_t> num_active,
                        std::span<double> x, std::span<double> scratch,
                        const PagerankParams& params, DanglingFn&& dangling_of,
                        SweepFn&& sweep) {
  SpmmStats stats;
  stats.lane_stats.assign(lanes, PagerankStats{});

  std::uint64_t live = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    if (num_active[k] > 0) {
      live |= lane_bit(k);
    } else {
      // Empty window: zero the lane and mark it converged immediately.
      for (std::size_t v = 0; v < n; ++v) x[v * lanes + k] = 0.0;
    }
  }

  const double one_minus_alpha = 1.0 - params.alpha;
  double* cur = x.data();
  double* next = scratch.data();

  for (int iter = 0; iter < params.max_iters && live != 0; ++iter) {
    LaneVec base(lanes, 0.0);
    const LaneVec dangling = params.redistribute_dangling
                                 ? dangling_of(cur, live)
                                 : LaneVec(lanes, 0.0);
    for (std::size_t k = 0; k < lanes; ++k) {
      base[k] = num_active[k] > 0
                    ? (params.alpha + one_minus_alpha * dangling[k]) /
                          static_cast<double>(num_active[k])
                    : 0.0;
    }

    LaneVec diff(lanes, 0.0);
    sweep(std::span<const double>(cur, n * lanes),
          std::span<double>(next, n * lanes), base, live, diff);

    std::swap(cur, next);
    stats.iterations = iter + 1;
    const bool record_residuals = obs::metrics_enabled();
    std::uint64_t converged_this_iter = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      if (!mask_test(live, k)) continue;
      stats.lane_stats[k].iterations = iter + 1;
      stats.lane_stats[k].final_residual = diff[k];
      if (record_residuals) stats.lane_stats[k].residuals.push_back(diff[k]);
      if (diff[k] < params.tol) {
        live &= ~lane_bit(k);
        ++converged_this_iter;
      }
    }
    if (converged_this_iter != 0) {
      obs::count(obs::Counter::kLanesConverged, converged_this_iter);
    }
  }
  obs::count(obs::Counter::kIterations,
             static_cast<std::uint64_t>(stats.iterations));

  if (cur != x.data()) {
    std::memcpy(x.data(), cur, n * lanes * sizeof(double));
  }
  return stats;
}

}  // namespace pmpr
