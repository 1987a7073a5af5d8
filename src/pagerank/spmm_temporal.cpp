#include "pagerank/spmm_temporal.hpp"

#include <cassert>

#include "obs/counters.hpp"
#include "pagerank/simd_sweep.hpp"
#include "pagerank/spmm_power_iterate.hpp"
#include "util/check.hpp"

namespace pmpr {

SpmmStats pagerank_spmm(const SpmmWindowState& state,
                        const CompiledBatchCsr& compiled, std::span<double> x,
                        std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel, SimdMode simd) {
  const std::size_t n = compiled.num_rows();
  const std::size_t lanes = compiled.lanes;
  PMPR_CHECK_MSG(lanes >= 1 && lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  assert(x.size() == n * lanes && scratch.size() == n * lanes);
  assert(state.lanes == lanes);

  // A one-lane batch (the kSpmv kernel) has no lanes to vectorize across:
  // every ISA runs the one-lane sweep and dangling sum, counted as a scalar
  // sweep.
  const bool one_lane = lanes == 1;
  const SimdIsa resolved = resolve_simd(simd);
  const SimdIsa isa = one_lane ? SimdIsa::kScalar : resolved;
  const SpmmKernel kernel = select_spmm_kernel(isa, lanes);
  const obs::Counter isa_counter =
      isa == SimdIsa::kAvx512  ? obs::Counter::kSimdSweepAvx512
      : isa == SimdIsa::kAvx2 ? obs::Counter::kSimdSweepAvx2
                               : obs::Counter::kSimdSweepScalar;

  // Sweeps visit only active rows, so entries of rows inactive in every
  // lane are forced to the reference kernel's 0.0 once, in both buffers
  // (the reference rewrites them every iteration).
  std::size_t next_active = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (next_active < compiled.active_rows.size() &&
        compiled.active_rows[next_active] == v) {
      ++next_active;
      continue;
    }
    for (std::size_t k = 0; k < lanes; ++k) {
      x[v * lanes + k] = 0.0;
      scratch[v * lanes + k] = 0.0;
    }
  }

  const double one_minus_alpha = 1.0 - params.alpha;
  const std::size_t rows = compiled.active_rows.size();
  const std::size_t dangling_rows = compiled.dangling_rows.size();
  // Only the precompiled dangling rows are visited, masked down to the
  // live lanes. A one-lane batch sums them serially.
  auto dangling_of = [&](const double* cur, std::uint64_t live_mask) {
    if (parallel != nullptr && !one_lane) {
      return par::parallel_reduce(
          0, dangling_rows, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            LaneVec local(lanes, 0.0);
            kernel.dangling(compiled, cur, live_mask, local.data(), lo, hi);
            obs::count(obs::Counter::kDanglingScanned, hi - lo);
            return local;
          },
          add_lanes);
    }
    LaneVec dangling(lanes, 0.0);
    kernel.dangling(compiled, cur, live_mask, dangling.data(), 0,
                    dangling_rows);
    obs::count(obs::Counter::kDanglingScanned, dangling_rows);
    return dangling;
  };
  auto sweep = [&](std::span<const double> cur, std::span<double> next,
                   const LaneVec& base, std::uint64_t live_mask,
                   LaneVec& diff) {
    obs::count(isa_counter);
    if (parallel != nullptr && one_lane) {
      diff[0] = par::parallel_reduce(
          0, rows, 0.0, *parallel,
          [&](std::size_t lo, std::size_t hi) {
            double local = 0.0;
            const std::uint64_t edges =
                kernel.sweep(compiled, state, cur.data(), next.data(),
                             base.data(), one_minus_alpha, live_mask, &local,
                             lo, hi);
            obs::count(obs::Counter::kEdgesTraversed, edges);
            return local;
          },
          [](double a, double b) { return a + b; });
    } else if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, rows, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            LaneVec local(lanes, 0.0);
            const std::uint64_t edges =
                kernel.sweep(compiled, state, cur.data(), next.data(),
                             base.data(), one_minus_alpha, live_mask,
                             local.data(), lo, hi);
            obs::count(obs::Counter::kEdgesTraversed, edges);
            return local;
          },
          add_lanes);
    } else {
      const std::uint64_t edges =
          kernel.sweep(compiled, state, cur.data(), next.data(), base.data(),
                       one_minus_alpha, live_mask, diff.data(), 0, rows);
      obs::count(obs::Counter::kEdgesTraversed, edges);
    }
  };
  return power_iterate(n, lanes, state.num_active, x, scratch, params,
                       dangling_of, sweep);
}

}  // namespace pmpr
