#include "streaming/incremental_pagerank.hpp"

#include <cmath>

#include "pagerank/partial_init.hpp"
#include "pagerank/power_iterate.hpp"

namespace pmpr::streaming {

IncrementalPagerank::IncrementalPagerank(const DynamicGraph& graph,
                                         PagerankParams params)
    : graph_(graph),
      params_(params),
      x_(graph.num_vertices(), 0.0),
      scratch_(graph.num_vertices(), 0.0),
      active_(graph.num_vertices(), 0),
      prev_active_(graph.num_vertices(), 0) {}

bool IncrementalPagerank::carry() {
  const bool warm = has_previous_;
  has_previous_ = graph_.num_active() > 0;
  if (!has_previous_) return false;
  active_.swap(prev_active_);
  for (std::size_t v = 0; v < active_.size(); ++v) {
    active_[v] = graph_.is_active(static_cast<VertexId>(v)) ? 1 : 0;
  }
  if (warm) {
    partial_init(x_, prev_active_, active_, graph_.num_active(), x_);
  } else {
    full_init(active_, graph_.num_active(), x_);
  }
  return warm;
}

PagerankStats IncrementalPagerank::update(const par::ForOptions* parallel) {
  carry();
  return power_iterate(graph_, x_, scratch_, params_, parallel);
}

DeltaPushStats IncrementalPagerank::update_delta_push(
    std::span<const TemporalEdge> inserted,
    std::span<const TemporalEdge> removed) {
  DeltaPushStats stats;
  if (carry()) push_frontier(inserted, removed, stats);
  // Certification: full sweeps to the shared tolerance, kept serial.
  stats.pagerank = power_iterate(graph_, x_, scratch_, params_, nullptr);
  return stats;
}

void IncrementalPagerank::enqueue(VertexId v, std::vector<VertexId>& into) {
  if (queued_epoch_[v] != epoch_ && graph_.is_active(v)) {
    queued_epoch_[v] = epoch_;
    into.push_back(v);
  }
}

void IncrementalPagerank::push_frontier(
    std::span<const TemporalEdge> inserted,
    std::span<const TemporalEdge> removed, DeltaPushStats& stats) {
  const std::size_t n = x_.size();
  queued_epoch_.resize(n, 0);
  const auto n_active = static_cast<double>(graph_.num_active());
  const double d = 1.0 - params_.alpha;
  // Push threshold: tight enough that the certification sweeps converge
  // in a couple of iterations, loose enough to keep the frontier local.
  const double theta = params_.tol / (8.0 * n_active);

  ++epoch_;
  frontier_.clear();
  for (const auto batch : {inserted, removed}) {
    for (const auto& e : batch) {
      // The destination's pull sum changed directly; the source's
      // out-degree changed, which perturbs every one of its current
      // out-neighbors.
      enqueue(e.dst, frontier_);
      graph_.for_each_out(
          e.src, [&](VertexId w, std::uint32_t) { enqueue(w, frontier_); });
    }
  }

  // Base frozen across the phase; the certification sweeps repair the
  // teleport/dangling coupling afterwards.
  double dangling = 0.0;
  if (params_.redistribute_dangling) {
    for (std::size_t v = 0; v < n; ++v) {
      if (active_[v] != 0 &&
          graph_.out_degree(static_cast<VertexId>(v)) == 0) {
        dangling += x_[v];
      }
    }
  }
  const double base = (params_.alpha + d * dangling) / n_active;

  constexpr std::size_t kMaxRounds = 64;
  std::uint64_t edges = 0;  // not counted: kEdgesTraversed prices sweeps
  for (std::size_t round = 0; round < kMaxRounds && !frontier_.empty() &&
                              stats.frontier_visits < 4 * n;
       ++round) {
    ++stats.frontier_rounds;
    next_frontier_.clear();
    ++epoch_;
    for (const VertexId v : frontier_) {
      ++stats.frontier_visits;
      const double value = base + d * pull_sum(graph_, x_.data(), v, edges);
      const double change = std::abs(value - x_[v]);
      x_[v] = value;
      if (change > theta) {
        graph_.for_each_out(v, [&](VertexId w, std::uint32_t) {
          enqueue(w, next_frontier_);
        });
      }
    }
    frontier_.swap(next_frontier_);
  }

  // The localized updates do not preserve total probability mass, and a
  // mass error can only decay at the slow damping rate d per sweep —
  // which would erase the phase's benefit. Project back onto the mass-1
  // manifold before certifying.
  double mass = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (active_[v] != 0) mass += x_[v];
  }
  if (mass > 0.0) {
    const double inv = 1.0 / mass;
    for (std::size_t v = 0; v < n; ++v) x_[v] *= inv;
  }
}

}  // namespace pmpr::streaming
