// Offline execution model (paper §3.3.1): rebuild an independent graph for
// every window from the event data, run PageRank from a cold start. The
// per-window reconstruction dominates the cost — the baseline the
// postmortem representation eliminates.
#pragma once

#include "exec/results.hpp"
#include "graph/edge_list.hpp"
#include "graph/window.hpp"
#include "pagerank/pagerank.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

struct OfflineOptions {
  PagerankParams pr;
  /// Run WindowGraph::validate() on every rebuilt window graph (throws
  /// pmpr::InvariantError on a structural violation).
  bool validate = false;
  /// Pool each window's PageRank sweeps run on (nullptr: the global pool).
  par::ThreadPool* pool = nullptr;
};

/// Runs the offline model over every window of `spec`. `events` must be
/// time-sorted. Results are delivered to `sink` in window order.
RunResult run_offline(const TemporalEdgeList& events, const WindowSpec& spec,
                      ResultSink& sink, const OfflineOptions& opts);

}  // namespace pmpr
