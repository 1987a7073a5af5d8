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
  /// Parallelize inside each PageRank (application-level).
  bool parallel_kernel = true;
  /// Rebuild + solve different windows concurrently — the "massively
  /// parallel" deployment §3.3.1 describes (each window independent, so
  /// this maps to a cluster; here it maps to the pool). Exclusive with
  /// parallel_kernel in effect: when set, kernels run sequentially.
  bool parallel_windows = false;
  par::Partitioner partitioner = par::Partitioner::kAuto;
  std::size_t grain = 1;
  /// Run WindowGraph::validate() on every rebuilt window graph (throws
  /// pmpr::InvariantError on a structural violation).
  bool validate = false;
  par::ThreadPool* pool = nullptr;
};

/// Runs the offline model over every window of `spec`. `events` must be
/// time-sorted. Results are delivered to `sink` in window order.
RunResult run_offline(const TemporalEdgeList& events, const WindowSpec& spec,
                      ResultSink& sink, const OfflineOptions& opts);

}  // namespace pmpr
