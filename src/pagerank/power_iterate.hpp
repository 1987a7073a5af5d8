// The single-vector power-iteration driver (Eq. 1, pull form) shared by the
// offline kernel (pagerank(), over a window's CSR) and the streaming
// refresher (streaming::IncrementalPagerank, over the dynamic graph's
// edge-block chains), as SpMM batches share spmm_power_iterate.hpp. It owns
// the empty-window case, the teleport + dangling base term, the sweep
// (serial or through par::parallel_reduce), residual recording, the
// counters and the final copy. A graph supplies only
//   std::size_t num_active()
//   bool is_active(VertexId v)
//   std::uint32_t out_degree(VertexId u)
//   void for_each_in(VertexId v, Fn fn)  // fn(u, ...) per in-neighbor u
// so the models run the same operations in the same order: on a window
// whose in-neighbors they list in the same order, their ranks, residuals
// and iteration counts agree bit for bit.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "graph/types.hpp"
#include "obs/counters.hpp"
#include "pagerank/pagerank.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

/// v's pull sum Σ_{u ∈ Γ-(v)} x[u] / |Γ+(u)|; adds v's in-edges to `edges`.
template <typename Graph>
double pull_sum(const Graph& g, const double* x, VertexId v,
                std::uint64_t& edges) {
  double sum = 0.0;
  g.for_each_in(v, [&](VertexId u, auto... /*weight*/) {
    // Any in-neighbor has out-degree >= 1 by construction.
    sum += x[u] / static_cast<double>(g.out_degree(u));
    ++edges;
  });
  return sum;
}

/// Runs power iterations on `g` from the guess in `x` (a distribution over
/// g's active set) until the L1 change falls below params.tol or
/// params.max_iters sweeps ran; `x` holds the result. `scratch` matches `x`
/// in size. Non-null `parallel` runs each sweep through
/// par::parallel_reduce, whose split tree is fixed by the range, the
/// options and the pool size. An empty graph zeroes `x` and runs no sweep.
template <typename Graph>
PagerankStats power_iterate(const Graph& g, std::span<double> x,
                            std::span<double> scratch,
                            const PagerankParams& params,
                            const par::ForOptions* parallel) {
  assert(scratch.size() == x.size());
  PagerankStats stats;
  const std::size_t n = x.size();
  if (g.num_active() == 0) {
    std::fill(x.begin(), x.end(), 0.0);
    return stats;
  }
  const auto n_active = static_cast<double>(g.num_active());
  const double one_minus_alpha = 1.0 - params.alpha;
  double* cur = x.data();
  double* next = scratch.data();

  // One pull iteration over rows [lo, hi); returns the partial L1 change.
  auto sweep = [&](const double* from, double* to, double base,
                   std::size_t lo, std::size_t hi) {
    double diff = 0.0;
    std::uint64_t edges = 0;  // flushed once per chunk, not per edge
    for (std::size_t v = lo; v < hi; ++v) {
      const auto vid = static_cast<VertexId>(v);
      if (!g.is_active(vid)) {
        to[v] = 0.0;
        continue;
      }
      const double value =
          base + one_minus_alpha * pull_sum(g, from, vid, edges);
      diff += std::abs(value - from[v]);
      to[v] = value;
    }
    obs::count(obs::Counter::kEdgesTraversed, edges);
    return diff;
  };

  for (int iter = 0; iter < params.max_iters; ++iter) {
    // Dangling mass from the *current* vector, before the sweep.
    double dangling = 0.0;
    if (params.redistribute_dangling) {
      for (std::size_t v = 0; v < n; ++v) {
        const auto vid = static_cast<VertexId>(v);
        if (g.is_active(vid) && g.out_degree(vid) == 0) dangling += cur[v];
      }
    }
    const double base =
        (params.alpha + one_minus_alpha * dangling) / n_active;

    double diff = 0.0;
    if (parallel != nullptr) {
      diff = par::parallel_reduce(
          0, n, 0.0, *parallel,
          [&](std::size_t lo, std::size_t hi) {
            return sweep(cur, next, base, lo, hi);
          },
          [](double a, double b) { return a + b; });
    } else {
      diff = sweep(cur, next, base, 0, n);
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

  if (cur != x.data()) std::memcpy(x.data(), cur, n * sizeof(double));
  return stats;
}

}  // namespace pmpr
