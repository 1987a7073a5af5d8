// PageRank on a static window graph (pull-style power iteration).
//
// The paper's Eq. 1 with α as the *teleportation* probability:
//   PR(v) = α/|V| + (1-α) · Σ_{u ∈ Γ-(v)} PR(u)/|Γ+(u)|
// where |V| is the number of active vertices of the window. Mass from
// dangling active vertices (out-degree 0) is redistributed uniformly so the
// vector stays a distribution; this is applied identically in all three
// execution models, keeping them numerically comparable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

struct PagerankParams {
  double alpha = 0.15;    ///< Teleportation probability (paper's α).
  double tol = 1e-9;      ///< L1 convergence threshold.
  int max_iters = 100;    ///< Iteration cap (standard practice, §2.2).
  bool redistribute_dangling = true;
};

struct PagerankStats {
  int iterations = 0;
  double final_residual = 0.0;  ///< L1 change of the last iteration.
  /// Per-iteration L1 residuals (the convergence trajectory). Recorded
  /// only while obs::set_metrics_enabled(true) — empty otherwise, so the
  /// kernels stay allocation-free on the default path.
  std::vector<double> residuals;
  [[nodiscard]] bool converged(const PagerankParams& p) const {
    return final_residual < p.tol;
  }
};

/// Fills `x` with the uniform distribution over active vertices (1/|V_i|)
/// and zero elsewhere — the "full initialization" baseline of Fig. 6.
void full_init(std::span<const std::uint8_t> active, std::size_t num_active,
               std::span<double> x);

/// Runs PageRank on `g` through the driver the streaming refresher shares
/// (pagerank/power_iterate.hpp). `x` holds the initial guess on entry (a
/// valid distribution over g's active set) and the result on exit.
/// `scratch` must match x in size. If `parallel` is non-null the
/// per-iteration sweep runs as a parallel_reduce with those options;
/// otherwise it is sequential.
PagerankStats pagerank(const WindowGraph& g, std::span<double> x,
                       std::span<double> scratch, const PagerankParams& params,
                       const par::ForOptions* parallel = nullptr);

}  // namespace pmpr
