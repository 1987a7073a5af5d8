#include "exec/streaming_runner.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "streaming/dynamic_graph.hpp"
#include "streaming/incremental_pagerank.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pmpr {

std::string_view to_string(StreamingAlgorithm a) {
  return a == StreamingAlgorithm::kWarmRestart ? "warm-restart"
                                               : "delta-push";
}

namespace {

/// The per-window insert/expire batches of the sliding-window edge stream.
struct WindowBatches {
  std::span<const TemporalEdge> inserted;
  std::span<const TemporalEdge> removed;
};

WindowBatches advance_graph(streaming::DynamicGraph& graph,
                            const TemporalEdgeList& events,
                            const WindowSpec& spec, std::size_t w) {
  WindowBatches batches;
  if (w == 0) {
    batches.inserted = events.slice(spec.start(0), spec.end(0));
    graph.insert_batch(batches.inserted);
    return batches;
  }
  const Timestamp prev_start = spec.start(w - 1);
  const Timestamp prev_end = spec.end(w - 1);
  const Timestamp cur_start = spec.start(w);
  const Timestamp cur_end = spec.end(w);
  if (cur_start > prev_end) {
    // Disjoint windows: drop everything, insert the new window whole.
    batches.removed = events.slice(prev_start, prev_end);
    batches.inserted = events.slice(cur_start, cur_end);
  } else {
    // Overlapping slide: expire [prev_start, cur_start), admit
    // (prev_end, cur_end].
    batches.removed = events.slice(prev_start, cur_start - 1);
    batches.inserted = events.slice(prev_end + 1, cur_end);
  }
  graph.remove_batch(batches.removed);
  graph.insert_batch(batches.inserted);
  return batches;
}

}  // namespace

RunResult run_streaming(const TemporalEdgeList& events, const WindowSpec& spec,
                        ResultSink& sink, const StreamingOptions& opts) {
  spec.validate();
  PMPR_CHECK_MSG(events.is_sorted_by_time(),
                 "run_streaming replays events as the edge stream and "
                 "requires them time-sorted; call sort_by_time() first");
  RunResult result;
  result.num_windows = spec.count;
  result.iterations_per_window.assign(spec.count, 0);
  result.final_residuals.assign(spec.count, 0.0);
  result.residual_trajectories.assign(spec.count, {});

  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  PMPR_TRACE_SPAN("streaming.run");

  const VertexId n = events.num_vertices();
  streaming::DynamicGraph graph(n);
  streaming::IncrementalPagerank refresher(graph, opts.pr);
  const bool use_delta = opts.algorithm == StreamingAlgorithm::kDeltaPush;
  const par::ForOptions for_opts{.pool = opts.pool};

  AccumTimer mutate_timer;
  AccumTimer compute_timer;
  std::size_t max_live_edges = 0;
  for (std::size_t w = 0; w < spec.count; ++w) {
    WindowBatches batches;
    {
      ScopedAccum timing(mutate_timer);
      // Graph mutation is the streaming model's "build" phase.
      PMPR_PHASE(obs::Phase::kBuild, "window.mutate", w);
      batches = advance_graph(graph, events, spec, w);
      if (opts.validate) graph.validate();
    }

    PagerankStats stats;
    {
      ScopedAccum timing(compute_timer);
      // Both updates re-seed from the previous solution themselves: the
      // iterate phase covers init for the streaming model.
      PMPR_PHASE(obs::Phase::kIterate, "window.iterate", w);
      if (!opts.incremental) refresher.reset();
      if (use_delta) {
        stats = refresher.update_delta_push(batches.inserted, batches.removed)
                    .pagerank;
      } else {
        stats = refresher.update(&for_opts);
      }
    }

    result.iterations_per_window[w] = stats.iterations;
    result.total_iterations += static_cast<std::uint64_t>(stats.iterations);
    result.final_residuals[w] = stats.final_residual;
    result.residual_trajectories[w] = std::move(stats.residuals);
    max_live_edges = std::max(max_live_edges, graph.num_edges());
    obs::count(obs::Counter::kWindowsProcessed);
    obs::fr_record(obs::FrEvent::kWindowDone, nullptr, w, stats.iterations);
    PMPR_PHASE(obs::Phase::kSink, "window.sink", w);
    sink.consume_dense(w, refresher.values());
  }
  result.build_seconds = mutate_timer.seconds();
  result.compute_seconds = compute_timer.seconds();
  // Rough resident estimate: the live dynamic adjacency at its largest
  // window (endpoints + timestamp per directed edge, both directions) plus
  // the dense per-vertex state (rank + residual/scratch + degree + flags).
  result.peak_memory_bytes =
      2 * max_live_edges * (2 * sizeof(VertexId) + sizeof(Timestamp)) +
      static_cast<std::size_t>(n) *
          (2 * sizeof(double) + 2 * sizeof(VertexId));
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  return result;
}

}  // namespace pmpr
