// Incremental PageRank for the streaming model (paper §3.3.2).
//
// After every batch of graph updates the analysis is refreshed from the
// previous solution rather than from scratch. Both refreshes carry the
// previous vector onto the new active set (renormalized by Eq. 4, the
// postmortem partial initialization, which bounds the residual r the batch
// introduces) and finish with the power iterations the offline model runs
// (pagerank/power_iterate.hpp), so every refresh certifies the same L1
// tolerance:
//  - update(): warm restart, Riedy-style. Because consecutive windows are
//    similar, it converges in far fewer iterations than a cold start — the
//    streaming model's one algorithmic advantage.
//  - update_delta_push(): Riedy's ∆-push (the paper's Eq. 3,
//      ∆x_{k+1} = d·A_∆ᵀD_∆⁻¹·∆x_k + d·(A_∆ᵀD_∆⁻¹ − AᵀD⁻¹)·x + r,
//    d = 1 − α). Between the carry and the iterations, a threshold-driven
//    worklist re-evaluates the vertices the batch touched; any whose value
//    moves more than a push threshold enqueues its out-neighbors. When the
//    frontier dies out, the iterations absorb the global teleport/dangling
//    coupling. The pass touches far fewer edges per window than a sweep
//    when batches are small relative to the window — the streaming model's
//    best case.
//
// Iterations traverse the dynamic graph's edge-block chains directly, so
// the kernel pays the pointer-chasing cost of the mutable representation —
// faithful to running PageRank inside STINGER.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pagerank/pagerank.hpp"
#include "streaming/dynamic_graph.hpp"

namespace pmpr::streaming {

/// A ∆-push refresh's work: the certifying sweeps, and the localized phase
/// before them.
struct DeltaPushStats {
  PagerankStats pagerank;           ///< Final residual + full-sweep count.
  std::size_t frontier_rounds = 0;  ///< Worklist rounds executed.
  std::size_t frontier_visits = 0;  ///< Vertex re-evaluations in the phase.
};

class IncrementalPagerank {
 public:
  IncrementalPagerank(const DynamicGraph& graph, PagerankParams params);

  /// Warm restart for the graph's current state. The first call (or the
  /// first after reset() or an empty graph) cold-starts from the uniform
  /// vector; later calls start from the previous solution. Non-null
  /// `parallel` runs each sweep as a parallel_reduce — the only level of
  /// parallelism the streaming model has.
  PagerankStats update(const par::ForOptions* parallel = nullptr);

  /// ∆-push refresh after the caller applied `inserted` and `removed` to
  /// the graph. The batches only seed the frontier; the graph is the source
  /// of truth. A cold start skips the frontier pass. Runs sequentially.
  DeltaPushStats update_delta_push(std::span<const TemporalEdge> inserted,
                                   std::span<const TemporalEdge> removed);

  /// Forgets the previous solution (next update cold-starts). Used by the
  /// "streaming without incremental" ablation.
  void reset() { has_previous_ = false; }

  [[nodiscard]] std::span<const double> values() const { return x_; }

 private:
  /// Seeds x_ for the graph's current active set: Eq. 4 from the previous
  /// solution, or the uniform vector. Returns whether it carried. An empty
  /// graph has nothing to carry forward: x_ is left to the driver, which
  /// zeroes it, and the next update cold-starts.
  bool carry();
  void push_frontier(std::span<const TemporalEdge> inserted,
                     std::span<const TemporalEdge> removed,
                     DeltaPushStats& stats);
  /// Appends active `v` to `into` once per epoch.
  void enqueue(VertexId v, std::vector<VertexId>& into);

  const DynamicGraph& graph_;
  PagerankParams params_;
  std::vector<double> x_;
  std::vector<double> scratch_;
  /// The active set of the last carry, and the one before it.
  std::vector<std::uint8_t> active_;
  std::vector<std::uint8_t> prev_active_;
  bool has_previous_ = false;
  // ∆-push worklists, sized by the first update_delta_push.
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_frontier_;
  std::vector<std::uint32_t> queued_epoch_;
  std::uint32_t epoch_ = 0;
};

}  // namespace pmpr::streaming
