// Streaming execution model (paper §3.3.2): one mutable STINGER-style graph
// advanced window by window — events sliding into the window are inserted,
// events sliding out are removed — with incremental PageRank refreshed
// after each batch. Windows are inherently sequential; the only available
// parallelism is inside the kernel.
#pragma once

#include <string_view>

#include "exec/results.hpp"
#include "graph/edge_list.hpp"
#include "graph/window.hpp"
#include "pagerank/pagerank.hpp"
#include "par/parallel_for.hpp"

namespace pmpr {

/// How the streaming model refreshes PageRank after each window batch.
enum class StreamingAlgorithm {
  /// Power iteration warm-started from the previous solution.
  kWarmRestart,
  /// Riedy-style ∆-push (Eq. 3): localized frontier propagation from the
  /// changed vertices, then certifying sweeps. Runs sequentially.
  kDeltaPush,
};

[[nodiscard]] std::string_view to_string(StreamingAlgorithm a);

struct StreamingOptions {
  PagerankParams pr;
  /// Warm-start each window's PageRank from the previous solution
  /// (Riedy-style incremental update). Off = cold start every window.
  bool incremental = true;
  StreamingAlgorithm algorithm = StreamingAlgorithm::kWarmRestart;
  /// Run DynamicGraph::validate() after every window's batch mutation
  /// (throws pmpr::InvariantError on a structural violation). O(V + E) per
  /// window — debugging / sanitizer-CI aid, not for benchmarking.
  bool validate = false;
  /// Pool the warm-restart sweeps run on (nullptr: the global pool).
  par::ThreadPool* pool = nullptr;
};

/// Runs the streaming model over every window of `spec`. `events` must be
/// time-sorted (they are replayed as the edge stream). `build_seconds` of
/// the result accounts the graph mutation (insert/expire) time.
RunResult run_streaming(const TemporalEdgeList& events, const WindowSpec& spec,
                        ResultSink& sink, const StreamingOptions& opts);

}  // namespace pmpr
