#include "oracle/reference_kernels.hpp"

#include <algorithm>
#include <array>
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

/// Max-width run mask on the stack; only the first mask_words_for(lanes)
/// words are touched.
using RunMask = std::array<std::uint64_t, mask_words_for(kMaxSpmmLanes)>;

template <bool Atomic>
void scatter_spmm_rows(const MultiWindowGraph& part, const WindowSpec& spec,
                       const SpmmBatch& batch, SpmmWindowState& out,
                       std::size_t lo, std::size_t hi) {
  const std::size_t lanes = batch.lanes;
  const std::size_t words = out.mask_words;
  for (std::size_t v = lo; v < hi; ++v) {
    const auto cols = part.in.row_cols(static_cast<VertexId>(v));
    const auto times = part.in.row_times(static_cast<VertexId>(v));
    RunMask v_mask{};
    std::size_t i = 0;
    while (i < cols.size()) {
      const VertexId u = cols[i];
      RunMask run_mask{};
      while (i < cols.size() && cols[i] == u) {
        lanes_containing_into(spec, batch, times[i], run_mask.data());
        ++i;
      }
      if (!mask_any(run_mask.data(), words)) continue;
      // u gains one distinct out-neighbor in every lane of run_mask.
      for_each_set_lane(run_mask.data(), words, [&](std::size_t k) {
        if constexpr (Atomic) {
          std::atomic_ref<std::uint32_t> deg(out.out_degree[u * lanes + k]);
          // relaxed: pure commutative count; published by the join.
          deg.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++out.out_degree[u * lanes + k];
        }
      });
      for (std::size_t w = 0; w < words; ++w) {
        v_mask[w] |= run_mask[w];
        if (run_mask[w] == 0) continue;
        if constexpr (Atomic) {
          std::atomic_ref<std::uint64_t> mask(out.active_mask[u * words + w]);
          // relaxed: commutative bit-set; published by the join.
          mask.fetch_or(run_mask[w], std::memory_order_relaxed);
        } else {
          out.active_mask[u * words + w] |= run_mask[w];
        }
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      if (v_mask[w] == 0) continue;
      if constexpr (Atomic) {
        std::atomic_ref<std::uint64_t> mask(out.active_mask[v * words + w]);
        // relaxed: commutative bit-set; published by the join.
        mask.fetch_or(v_mask[w], std::memory_order_relaxed);
      } else {
        out.active_mask[v * words + w] |= v_mask[w];
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
/// `live_mask` (mask_words words). Accumulates the per-lane L1 change into
/// `diff`. This is the reference kernel the compiled sweeps must match
/// bit-for-bit when run serially; like them it uses an explicit fused
/// multiply-add per contribution.
void sweep_batch_rows(const MultiWindowGraph& part, const WindowSpec& spec,
                      const SpmmBatch& batch, const SpmmWindowState& state,
                      std::span<const double> x, std::span<double> x_next,
                      const LaneVec& base, double one_minus_alpha,
                      const std::uint64_t* live_mask, LaneVec& diff,
                      std::size_t lo, std::size_t hi) {
  const std::size_t lanes = batch.lanes;
  const std::size_t words = state.mask_words;
  LiveMask acc_scratch{};  // per-run lane mask, reused across runs
  std::vector<double> acc(lanes);
  std::uint64_t edges = 0;  // flushed once per chunk, not per edge
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint64_t* v_active = state.mask_of(v);
    std::uint64_t any_update = 0;
    for (std::size_t w = 0; w < words; ++w) {
      any_update |= v_active[w] & live_mask[w];
    }
    // Frozen (converged) and inactive lanes keep their current value so the
    // buffers can be swapped; accumulate only for live active lanes.
    for (std::size_t k = 0; k < lanes; ++k) {
      acc[k] = base[k];
    }

    if (any_update != 0) {
      const auto cols = part.in.row_cols(static_cast<VertexId>(v));
      const auto times = part.in.row_times(static_cast<VertexId>(v));
      edges += cols.size();
      std::size_t i = 0;
      while (i < cols.size()) {
        const VertexId u = cols[i];
        LiveMask& run_mask = acc_scratch;
        run_mask.fill(0);
        while (i < cols.size() && cols[i] == u) {
          lanes_containing_into(spec, batch, times[i], run_mask.data());
          ++i;
        }
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t m = run_mask[w] & v_active[w] & live_mask[w];
          while (m != 0) {
            const std::size_t k = w * kLanesPerMaskWord + ctz64(m);
            m &= m - 1;
            acc[k] = std::fma(
                one_minus_alpha,
                x[u * lanes + k] /
                    static_cast<double>(state.out_degree[u * lanes + k]),
                acc[k]);
          }
        }
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
  obs::count(obs::Counter::kEdgesTraversed, edges);
}

/// Per-lane dangling mass of live lanes from the current vectors, scanning
/// rows [lo, hi) of the full vertex space (reference path).
LaneVec dangling_scan(const SpmmWindowState& state, const double* cur,
                      std::size_t lanes, const std::uint64_t* live_mask,
                      std::size_t lo, std::size_t hi) {
  LaneVec dangling(lanes, 0.0);
  const std::size_t words = state.mask_words;
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint64_t* v_active = state.mask_of(v);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = v_active[w] & live_mask[w];
      while (m != 0) {
        const std::size_t k = w * kLanesPerMaskWord + ctz64(m);
        m &= m - 1;
        if (state.out_degree[v * lanes + k] == 0) {
          dangling[k] += cur[v * lanes + k];
        }
      }
    }
  }
  obs::count(obs::Counter::kDanglingScanned, hi - lo);
  return dangling;
}

}  // namespace

void compute_spmm_state(const MultiWindowGraph& part, const WindowSpec& spec,
                        const SpmmBatch& batch, SpmmWindowState& out,
                        const par::ForOptions* parallel) {
  // Release-mode check: an oversized lane count would index past the mask
  // words.
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
    for_each_set_lane(out.mask_of(v), out.mask_words,
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
  const std::size_t words = state.mask_words;

  const double one_minus_alpha = 1.0 - params.alpha;
  auto dangling_of = [&](const double* cur, const std::uint64_t* live_mask) {
    if (parallel != nullptr) {
      return par::parallel_reduce_slots(
          0, n, LaneVec(lanes, 0.0), *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return dangling_scan(state, cur, lanes, live_mask, lo, hi);
          },
          add_lanes);
    }
    return dangling_scan(state, cur, lanes, live_mask, 0, n);
  };
  auto sweep = [&](std::span<const double> cur, std::span<double> next,
                   const LaneVec& base, const std::uint64_t* live_mask,
                   LaneVec& diff) {
    if (parallel != nullptr) {
      diff = par::parallel_reduce_slots(
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
  return power_iterate(n, lanes, words, state.num_active, x, scratch, params,
                       dangling_of, sweep);
}

}  // namespace pmpr::oracle
