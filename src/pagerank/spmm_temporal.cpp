#include "pagerank/spmm_temporal.hpp"

#include <cassert>

#include "obs/counters.hpp"
#include "pagerank/simd_sweep.hpp"
#include "pagerank/spmm_power_iterate.hpp"
#include "util/check.hpp"

namespace pmpr {

namespace {

/// Compiled dangling scan: only the precompiled dangling vertices are
/// visited, masked down to the still-live lanes (converged lanes cost
/// nothing). Reads dangling-list indices [lo, hi).
LaneVec dangling_scan_compiled(const CompiledBatchCsr& compiled,
                               const double* cur, std::size_t lanes,
                               std::uint64_t live_mask, std::size_t lo,
                               std::size_t hi) {
  LaneVec dangling(lanes, 0.0);
  for (std::size_t i = lo; i < hi; ++i) {
    const VertexId v = compiled.dangling_rows[i];
    for_each_set_lane(compiled.dangling_mask[i] & live_mask,
                      [&](std::size_t k) {
                        dangling[k] += cur[v * lanes + k];
                      });
  }
  obs::count(obs::Counter::kDanglingScanned, hi - lo);
  return dangling;
}

}  // namespace

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

  const SimdIsa isa = resolve_simd(simd);
  SpmmSweep* const sweep_fn = select_spmm_sweep(isa);
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
  auto dangling_of = [&](const double* cur, std::uint64_t live_mask) {
    if (parallel != nullptr) {
      return par::parallel_reduce(
          0, dangling_rows, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return dangling_scan_compiled(compiled, cur, lanes, live_mask, lo,
                                          hi);
          },
          add_lanes);
    }
    return dangling_scan_compiled(compiled, cur, lanes, live_mask, 0,
                                  dangling_rows);
  };
  auto sweep = [&](std::span<const double> cur, std::span<double> next,
                   const LaneVec& base, std::uint64_t live_mask,
                   LaneVec& diff) {
    obs::count(isa_counter);
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, rows, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            LaneVec local(lanes, 0.0);
            const std::uint64_t edges =
                sweep_fn(compiled, state, cur.data(), next.data(),
                         base.data(), one_minus_alpha, live_mask,
                         local.data(), lo, hi);
            obs::count(obs::Counter::kEdgesTraversed, edges);
            return local;
          },
          add_lanes);
    } else {
      const std::uint64_t edges =
          sweep_fn(compiled, state, cur.data(), next.data(), base.data(),
                   one_minus_alpha, live_mask, diff.data(), 0, rows);
      obs::count(obs::Counter::kEdgesTraversed, edges);
    }
  };
  return power_iterate(n, lanes, state.num_active, x, scratch, params,
                       dangling_of, sweep);
}

}  // namespace pmpr
