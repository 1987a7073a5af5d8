#include "oracle/reference_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "pagerank/spmm_power_iterate.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace pmpr::oracle {

namespace {

/// Run compression for one SpMM row: calls `fn(u, run_mask)` once per
/// <neighbor, time> run whose events join at least one lane, with the union
/// of those events' lanes.
template <typename Fn>
void for_each_lane_run(const WindowSpec& spec, const SpmmBatch& batch,
                       std::span<const VertexId> cols,
                       std::span<const Timestamp> times, Fn&& fn) {
  std::size_t i = 0;
  while (i < cols.size()) {
    const VertexId u = cols[i];
    std::uint64_t run_mask = 0;
    while (i < cols.size() && cols[i] == u) {
      run_mask |= lanes_containing(spec, batch, times[i]);
      ++i;
    }
    if (run_mask != 0) fn(u, run_mask);
  }
}

template <bool Atomic>
void scatter_spmm_rows(const MultiWindowGraph& part, const WindowSpec& spec,
                       const SpmmBatch& batch, SpmmWindowState& out,
                       std::size_t lo, std::size_t hi) {
  const std::size_t lanes = batch.lanes;
  for (std::size_t v = lo; v < hi; ++v) {
    std::uint64_t v_mask = 0;
    for_each_lane_run(spec, batch, part.in.row_cols(static_cast<VertexId>(v)),
                      part.in.row_times(static_cast<VertexId>(v)),
                      [&](VertexId u, std::uint64_t run_mask) {
      // u gains one distinct out-neighbor in every lane of run_mask.
      for_each_set_lane(run_mask, [&](std::size_t k) {
        if constexpr (Atomic) {
          std::atomic_ref<std::uint32_t> deg(out.out_degree[u * lanes + k]);
          // relaxed: pure commutative count; published by the join.
          deg.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++out.out_degree[u * lanes + k];
        }
      });
      v_mask |= run_mask;
      if constexpr (Atomic) {
        std::atomic_ref<std::uint64_t> mask(out.active_mask[u]);
        // relaxed: commutative bit-set; published by the join.
        mask.fetch_or(run_mask, std::memory_order_relaxed);
      } else {
        out.active_mask[u] |= run_mask;
      }
    });
    if (v_mask != 0) {
      if constexpr (Atomic) {
        std::atomic_ref<std::uint64_t> mask(out.active_mask[v]);
        // relaxed: commutative bit-set; published by the join.
        mask.fetch_or(v_mask, std::memory_order_relaxed);
      } else {
        out.active_mask[v] |= v_mask;
      }
    }
  }
}

/// Scatter pass over rows [lo, hi): every active in-edge (u -> v) marks both
/// endpoints active and bumps u's distinct out-degree. `Atomic` selects
/// std::atomic_ref increments for the parallel path.
template <bool Atomic>
void scatter_window_rows(const MultiWindowGraph& part, Timestamp ts,
                         Timestamp te, WindowState& out, std::size_t lo,
                         std::size_t hi) {
  for (std::size_t v = lo; v < hi; ++v) {
    bool v_active = false;
    part.in.for_each_active_neighbor(
        static_cast<VertexId>(v), ts, te, [&](VertexId u) {
          v_active = true;
          if constexpr (Atomic) {
            std::atomic_ref<std::uint32_t> deg(out.out_degree[u]);
            // relaxed: pure commutative count; published by the join.
            deg.fetch_add(1, std::memory_order_relaxed);
            std::atomic_ref<std::uint8_t> act(out.active[u]);
            // relaxed: idempotent flag; published by the join.
            act.store(1, std::memory_order_relaxed);
          } else {
            ++out.out_degree[u];
            out.active[u] = 1;
          }
        });
    if (v_active) {
      if constexpr (Atomic) {
        std::atomic_ref<std::uint8_t> act(out.active[v]);
        // relaxed: idempotent flag; published by the join.
        act.store(1, std::memory_order_relaxed);
      } else {
        out.active[v] = 1;
      }
    }
  }
}

/// SpMV sweep over rows [lo, hi): the time filter is applied per event.
double sweep_window_rows(const MultiWindowGraph& part, Timestamp ts,
                         Timestamp te, const WindowState& state,
                         std::span<const double> x, std::span<double> x_next,
                         double base, double one_minus_alpha, std::size_t lo,
                         std::size_t hi) {
  double diff = 0.0;
  std::uint64_t edges = 0;  // flushed once per chunk, not per edge
  for (std::size_t v = lo; v < hi; ++v) {
    if (state.active[v] == 0) {
      x_next[v] = 0.0;
      continue;
    }
    double sum = 0.0;
    part.in.for_each_active_neighbor(
        static_cast<VertexId>(v), ts, te, [&](VertexId u) {
          sum += x[u] / static_cast<double>(state.out_degree[u]);
          ++edges;
        });
    const double next = base + one_minus_alpha * sum;
    diff += std::abs(next - x[v]);
    x_next[v] = next;
  }
  obs::count(obs::Counter::kEdgesTraversed, edges);
  return diff;
}

double dangling_mass(const WindowState& state, std::span<const double> x) {
  double dangling = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (state.active[v] != 0 && state.out_degree[v] == 0) dangling += x[v];
  }
  return dangling;
}

/// One shared sweep over rows [lo, hi) advancing all lanes live in
/// `live_mask`. Accumulates the per-lane L1 change into `diff`. This is the
/// reference kernel the compiled sweeps must match bit-for-bit when run
/// serially; like them it uses an explicit fused multiply-add per
/// contribution.
void sweep_batch_rows(const MultiWindowGraph& part, const WindowSpec& spec,
                      const SpmmBatch& batch, const SpmmWindowState& state,
                      std::span<const double> x, std::span<double> x_next,
                      const LaneVec& base, double one_minus_alpha,
                      std::uint64_t live_mask, LaneVec& diff, std::size_t lo,
                      std::size_t hi) {
  const std::size_t lanes = batch.lanes;
  std::vector<double> acc(lanes);
  std::uint64_t edges = 0;  // flushed once per chunk, not per edge
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint64_t v_active = state.active_mask[v];
    const std::uint64_t update = v_active & live_mask;
    // Frozen (converged) and inactive lanes keep their current value so the
    // buffers can be swapped; accumulate only for live active lanes.
    for (std::size_t k = 0; k < lanes; ++k) {
      acc[k] = base[k];
    }

    if (update != 0) {
      const auto cols = part.in.row_cols(static_cast<VertexId>(v));
      const auto times = part.in.row_times(static_cast<VertexId>(v));
      edges += cols.size();
      for_each_lane_run(spec, batch, cols, times,
                        [&](VertexId u, std::uint64_t run_mask) {
        for_each_set_lane(run_mask & update, [&](std::size_t k) {
          acc[k] = std::fma(
              one_minus_alpha,
              x[u * lanes + k] /
                  static_cast<double>(state.out_degree[u * lanes + k]),
              acc[k]);
        });
      });
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
  obs::count(obs::Counter::kEdgesTraversed, edges);
}

/// Per-lane dangling mass of live lanes from the current vectors, scanning
/// rows [lo, hi) of the full vertex space (reference path).
LaneVec dangling_scan(const SpmmWindowState& state, const double* cur,
                      std::size_t lanes, std::uint64_t live_mask,
                      std::size_t lo, std::size_t hi) {
  LaneVec dangling(lanes, 0.0);
  for (std::size_t v = lo; v < hi; ++v) {
    for_each_set_lane(state.active_mask[v] & live_mask, [&](std::size_t k) {
      if (state.out_degree[v * lanes + k] == 0) {
        dangling[k] += cur[v * lanes + k];
      }
    });
  }
  obs::count(obs::Counter::kDanglingScanned, hi - lo);
  return dangling;
}

}  // namespace

std::uint64_t lanes_containing(const WindowSpec& spec, const SpmmBatch& batch,
                               Timestamp t) {
  const auto [wlo, whi] = spec.windows_containing(t);  // [wlo, whi)
  if (wlo >= whi) return 0;
  // Lane k holds window first_window + k*stride; find the k range
  // intersecting [wlo, whi). The range is contiguous in k.
  const auto first = static_cast<std::int64_t>(batch.first_window);
  const auto stride = static_cast<std::int64_t>(batch.window_stride);
  const auto lo_num = static_cast<std::int64_t>(wlo) - first;
  const auto hi_num = static_cast<std::int64_t>(whi) - 1 - first;
  if (hi_num < 0) return 0;
  const std::int64_t k_lo = lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride;
  std::int64_t k_hi = hi_num / stride;
  k_hi = std::min<std::int64_t>(k_hi,
                                static_cast<std::int64_t>(batch.lanes) - 1);
  if (k_lo > k_hi) return 0;
  return lane_range_mask(static_cast<std::size_t>(k_lo),
                         static_cast<std::size_t>(k_hi));
}

void compile_spmm_batch(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& state,
                        CompiledBatchCsr& out) {
  const TemporalCsr decoded = part.is_compressed()
                                  ? decompress_temporal_csr(*part.in_compressed)
                                  : TemporalCsr{};
  const TemporalCsr& in = part.is_compressed() ? decoded : part.in;
  const std::size_t n = part.num_local();
  const std::size_t lanes = batch.lanes;
  state.resize(n, lanes);
  out.lanes = lanes;
  out.row_ptr.assign(n + 1, 0);
  out.nbr.clear();
  out.mask.clear();
  out.active_rows.clear();
  out.dangling_rows.clear();
  out.dangling_mask.clear();
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t v_mask = 0;
    for_each_lane_run(spec, batch, in.row_cols(static_cast<VertexId>(v)),
                      in.row_times(static_cast<VertexId>(v)),
                      [&](VertexId u, std::uint64_t run_mask) {
      out.nbr.push_back(u);
      out.mask.push_back(run_mask);
      for_each_set_lane(run_mask, [&](std::size_t k) {
        ++state.out_degree[u * lanes + k];
      });
      state.active_mask[u] |= run_mask;
      v_mask |= run_mask;
    });
    state.active_mask[v] |= v_mask;
    out.row_ptr[v + 1] = out.nbr.size();
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t m = state.active_mask[v];
    if (m == 0) continue;
    out.active_rows.push_back(static_cast<VertexId>(v));
    std::uint64_t dangling = 0;
    for_each_set_lane(m, [&](std::size_t k) {
      ++state.num_active[k];
      if (state.out_degree[v * lanes + k] == 0) dangling |= lane_bit(k);
    });
    if (dangling != 0) {
      out.dangling_rows.push_back(static_cast<VertexId>(v));
      out.dangling_mask.push_back(dangling);
    }
  }
}

void compute_window_state(const MultiWindowGraph& part, Timestamp ts,
                          Timestamp te, WindowState& out,
                          const par::ForOptions* parallel) {
  PMPR_CHECK_MSG(!part.is_compressed(),
                 "compute_window_state reads the raw in-CSR; compressed "
                 "parts require the streaming compile (compile_spmm_batch)");
  const std::size_t n = part.num_local();
  out.resize(n);
  if (parallel != nullptr) {
    par::parallel_for_range(0, n, *parallel,
                            [&](std::size_t lo, std::size_t hi) {
                              scatter_window_rows<true>(part, ts, te, out, lo,
                                                        hi);
                            });
    out.num_active = par::parallel_reduce(
        0, n, std::size_t{0}, *parallel,
        [&](std::size_t lo, std::size_t hi) {
          std::size_t c = 0;
          for (std::size_t v = lo; v < hi; ++v) c += out.active[v];
          return c;
        },
        [](std::size_t a, std::size_t b) { return a + b; });
  } else {
    scatter_window_rows<false>(part, ts, te, out, 0, n);
    out.num_active = 0;
    for (std::size_t v = 0; v < n; ++v) out.num_active += out.active[v];
  }
}

void compute_spmm_state(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& out,
                        const par::ForOptions* parallel) {
  // Release-mode check: an oversized lane count would shift lane bits past
  // the mask word.
  PMPR_CHECK_MSG(batch.lanes >= 1 && batch.lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << batch.lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  PMPR_CHECK_MSG(!part.is_compressed(),
                 "compute_spmm_state reads the raw in-CSR; compressed "
                 "parts require the streaming compile (compile_spmm_batch)");
  const std::size_t n = part.num_local();
  out.resize(n, batch.lanes);
  if (parallel != nullptr) {
    par::parallel_for_range(
        0, n, *parallel, [&](std::size_t lo, std::size_t hi) {
          scatter_spmm_rows<true>(part, spec, batch, out, lo, hi);
        });
  } else {
    scatter_spmm_rows<false>(part, spec, batch, out, 0, n);
  }
  for (std::size_t v = 0; v < n; ++v) {
    for_each_set_lane(out.active_mask[v],
                      [&](std::size_t k) { ++out.num_active[k]; });
  }
}

PagerankStats pagerank_window_spmv(const MultiWindowGraph& part, Timestamp ts,
                                   Timestamp te, const WindowState& state,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params,
                                   const par::ForOptions* parallel) {
  const std::size_t n = part.num_local();
  assert(x.size() == n && scratch.size() == n);
  PagerankStats stats;
  if (state.num_active == 0) {
    for (auto& v : x) v = 0.0;
    return stats;
  }
  const auto n_active = static_cast<double>(state.num_active);
  const double one_minus_alpha = 1.0 - params.alpha;

  double* cur = x.data();
  double* next = scratch.data();

  for (int iter = 0; iter < params.max_iters; ++iter) {
    std::span<const double> cur_span(cur, n);
    std::span<double> next_span(next, n);
    const double dangling = params.redistribute_dangling
                                ? dangling_mass(state, cur_span)
                                : 0.0;
    const double base = (params.alpha + one_minus_alpha * dangling) / n_active;

    double diff = 0.0;
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, n, 0.0, *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return sweep_window_rows(part, ts, te, state, cur_span,
                                     next_span, base, one_minus_alpha, lo,
                                     hi);
          },
          [](double a, double b) { return a + b; });
    } else {
      diff = sweep_window_rows(part, ts, te, state, cur_span, next_span,
                               base, one_minus_alpha, 0, n);
    }

    std::swap(cur, next);
    stats.iterations = iter + 1;
    stats.final_residual = diff;
    if (obs::metrics_enabled()) stats.residuals.push_back(diff);
    if (diff < params.tol) break;
  }
  obs::count(obs::Counter::kIterations,
             static_cast<std::uint64_t>(stats.iterations));
  if (params.redistribute_dangling) {
    obs::count(obs::Counter::kDanglingScanned,
               static_cast<std::uint64_t>(stats.iterations) * n);
  }
  if (stats.converged(params)) obs::count(obs::Counter::kLanesConverged);

  if (cur != x.data()) {
    std::copy(cur, cur + n, x.data());
  }
  return stats;
}

SpmmStats pagerank_spmm(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, const SpmmWindowState& state,
                        std::span<double> x, std::span<double> scratch,
                        const PagerankParams& params,
                        const par::ForOptions* parallel) {
  const std::size_t n = part.num_local();
  const std::size_t lanes = batch.lanes;
  PMPR_CHECK_MSG(lanes >= 1 && lanes <= kMaxSpmmLanes,
                 "SpMM batch lanes " << lanes << " outside [1, "
                                     << kMaxSpmmLanes << "]");
  assert(x.size() == n * lanes && scratch.size() == n * lanes);
  assert(state.lanes == lanes);

  const double one_minus_alpha = 1.0 - params.alpha;
  auto dangling_of = [&](const double* cur, std::uint64_t live_mask) {
    if (parallel != nullptr) {
      return par::parallel_reduce(
          0, n, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return dangling_scan(state, cur, lanes, live_mask, lo, hi);
          },
          add_lanes);
    }
    return dangling_scan(state, cur, lanes, live_mask, 0, n);
  };
  auto sweep = [&](std::span<const double> cur, std::span<double> next,
                   const LaneVec& base, std::uint64_t live_mask,
                   LaneVec& diff) {
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, n, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            LaneVec local(lanes, 0.0);
            sweep_batch_rows(part, spec, batch, state, cur, next, base,
                             one_minus_alpha, live_mask, local, lo, hi);
            return local;
          },
          add_lanes);
    } else {
      sweep_batch_rows(part, spec, batch, state, cur, next, base,
                       one_minus_alpha, live_mask, diff, 0, n);
    }
  };
  return power_iterate(n, lanes, state.num_active, x, scratch, params,
                       dangling_of, sweep);
}

void spmm_partial_init_lane(std::span<const double> prev_x,
                            std::size_t prev_lanes, std::size_t kp,
                            std::span<const std::uint64_t> prev_mask,
                            std::span<double> cur_x, std::size_t cur_lanes,
                            std::size_t k,
                            std::span<const std::uint64_t> cur_mask,
                            std::size_t cur_num_active) {
  const std::size_t n = cur_mask.size();
  const auto prev_has = [&](std::size_t v) {
    return mask_test(prev_mask[v], kp);
  };
  const auto cur_has = [&](std::size_t v) {
    return mask_test(cur_mask[v], k);
  };
  if (cur_num_active == 0) {
    for (std::size_t v = 0; v < n; ++v) cur_x[v * cur_lanes + k] = 0.0;
    return;
  }
  std::size_t shared = 0;
  double mass = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (prev_has(v) && cur_has(v)) {
      ++shared;
      mass += prev_x[v * prev_lanes + kp];
    }
  }
  const double uniform = 1.0 / static_cast<double>(cur_num_active);
  if (shared == 0 || mass <= 0.0) {
    for (std::size_t v = 0; v < n; ++v) {
      cur_x[v * cur_lanes + k] = cur_has(v) ? uniform : 0.0;
    }
    obs::count(obs::Counter::kVerticesReseeded, cur_num_active);
    return;
  }
  obs::count(obs::Counter::kVerticesReused, shared);
  obs::count(obs::Counter::kVerticesReseeded, cur_num_active - shared);
  const double scale =
      (static_cast<double>(shared) / static_cast<double>(cur_num_active)) /
      mass;
  for (std::size_t v = 0; v < n; ++v) {
    if (!cur_has(v)) {
      cur_x[v * cur_lanes + k] = 0.0;
    } else if (prev_has(v)) {
      cur_x[v * cur_lanes + k] = prev_x[v * prev_lanes + kp] * scale;
    } else {
      cur_x[v * cur_lanes + k] = uniform;
    }
  }
}

}  // namespace pmpr::oracle
