#include "exec/offline_runner.hpp"

#include <algorithm>
#include <utility>

#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pmpr {

namespace {

/// Rough resident bytes of one offline window's working set: the window
/// CSR (row pointers + columns), degrees, activity, and the two PageRank
/// vectors. An estimate for RunResult::peak_memory_bytes, not a
/// measurement.
std::size_t window_bytes(const WindowGraph& g) {
  return (g.num_vertices + 1) * sizeof(std::size_t)     // row_ptr
         + g.in.num_edges() * sizeof(VertexId)          // columns
         + g.num_vertices * sizeof(std::uint32_t)       // out_degree
         + g.num_vertices * sizeof(std::uint8_t)        // is_active
         + 2 * g.num_vertices * sizeof(double);         // x + scratch
}

/// Builds window `w`'s graph and runs a cold-start PageRank into `x`.
/// Adds the window's build and compute time to `result` and raises its
/// peak estimate to the window's working set; returns the kernel stats.
PagerankStats solve_window(const TemporalEdgeList& events,
                           const WindowSpec& spec, std::size_t w,
                           const OfflineOptions& opts, std::vector<double>& x,
                           std::vector<double>& scratch, RunResult& result) {
  Timer build_timer;
  PMPR_TRACE_SPAN("offline.window");
  const WindowGraph g = [&] {
    PMPR_PHASE(obs::Phase::kBuild, "window.build", w);
    const auto slice = events.slice(spec.start(w), spec.end(w));
    return build_window_graph(slice, events.num_vertices());
  }();
  result.build_seconds += build_timer.seconds();
  if (opts.validate) g.validate();
  result.peak_memory_bytes =
      std::max(result.peak_memory_bytes, window_bytes(g));

  Timer compute_timer;
  x.resize(g.num_vertices);
  scratch.resize(g.num_vertices);
  {
    PMPR_PHASE(obs::Phase::kInit, "window.init", w);
    full_init(g.is_active, g.num_active, x);
  }
  PMPR_PHASE(obs::Phase::kIterate, "window.iterate", w);
  const par::ForOptions kernel_par{.pool = opts.pool};
  PagerankStats stats = pagerank(g, x, scratch, opts.pr, &kernel_par);
  result.compute_seconds += compute_timer.seconds();
  obs::count(obs::Counter::kWindowsProcessed);
  obs::fr_record(obs::FrEvent::kWindowDone, nullptr, w, stats.iterations);
  return stats;
}

}  // namespace

RunResult run_offline(const TemporalEdgeList& events, const WindowSpec& spec,
                      ResultSink& sink, const OfflineOptions& opts) {
  spec.validate();
  PMPR_CHECK_MSG(events.is_sorted_by_time(),
                 "run_offline slices events per window and requires them "
                 "time-sorted; call sort_by_time() first");
  RunResult result;
  result.num_windows = spec.count;
  result.iterations_per_window.assign(spec.count, 0);
  result.final_residuals.assign(spec.count, 0.0);
  result.residual_trajectories.assign(spec.count, {});

  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  PMPR_TRACE_SPAN("offline.run");

  std::vector<double> x;
  std::vector<double> scratch;
  for (std::size_t w = 0; w < spec.count; ++w) {
    PagerankStats stats =
        solve_window(events, spec, w, opts, x, scratch, result);
    result.iterations_per_window[w] = stats.iterations;
    result.total_iterations += static_cast<std::uint64_t>(stats.iterations);
    result.final_residuals[w] = stats.final_residual;
    result.residual_trajectories[w] = std::move(stats.residuals);
    PMPR_PHASE(obs::Phase::kSink, "window.sink", w);
    sink.consume_dense(w, x);
  }
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  return result;
}

}  // namespace pmpr
