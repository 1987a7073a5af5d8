// Quickstart: the smallest end-to-end use of the library.
//
//   1. Build (or load) a temporal edge set.
//   2. Choose a sliding-window analysis (delta, sw).
//   3. Run the postmortem PageRank driver with suggested parameters.
//   4. Read the per-window PageRank vectors.
//
// Run with no arguments for a self-contained demo on the paper's worked
// example (Fig. 2), or pass --events <file> to analyze your own data
// ("src dst time" per line).
#include <cstdio>
#include <exception>

#include "pmpr.hpp"

using namespace pmpr;

int main(int argc, char** argv) {
  std::string events_path;
  std::int64_t delta = 107;
  std::int64_t sw = 30;
  Options opts(
      "pmpr quickstart - postmortem PageRank over a sliding window");
  opts.add("events", &events_path,
           "temporal edge list file (src dst time per line); empty = demo");
  opts.add("delta", &delta, "window size, in the data's time unit");
  opts.add("sw", &sw, "sliding offset, in the data's time unit");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 1;

  // --- 1. The temporal event database -----------------------------------
  TemporalEdgeList events;
  if (events_path.empty()) {
    // The paper's Fig. 2 example: 7 entities, 14 dated relations
    // (timestamps are day numbers), inserted in both directions.
    const std::vector<TemporalEdge> fig2{
        {0, 1, 171}, {2, 4, 175}, {3, 5, 191}, {1, 2, 212}, {1, 3, 222},
        {4, 5, 255}, {1, 6, 274}, {3, 6, 277}, {4, 6, 278}, {5, 6, 281},
        {0, 1, 308}, {0, 2, 309}, {1, 4, 312}, {2, 4, 315}};
    for (const auto& e : fig2) {
      events.add(e.src, e.dst, e.time);
      events.add(e.dst, e.src, e.time);
    }
    std::printf("No --events given: using the paper's Fig. 2 example.\n");
  } else {
    // A file that cannot be read or parsed ends the run with one line.
    try {
      events = TemporalEdgeList::load_text(events_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "quickstart: %s\n", e.what());
      return 1;
    }
  }
  events.sort_by_time();
  if (events.empty()) {
    std::fprintf(stderr, "no events to analyze\n");
    return 1;
  }

  // --- 2. The sliding-window analysis ------------------------------------
  // Windows of `delta` sliding by `sw`, covering the whole data range.
  const WindowSpec spec =
      WindowSpec::cover(events.min_time(), events.max_time(), delta, sw);
  std::printf("%zu events, %u vertices, %zu windows (delta=%lld, sw=%lld)\n",
              events.size(), events.num_vertices(), spec.count,
              static_cast<long long>(spec.delta),
              static_cast<long long>(spec.sw));

  // --- 3. Postmortem PageRank with suggested parameters ------------------
  const PostmortemConfig cfg = suggest_config_for(events, spec);

  StoreAllSink sink(spec.count);
  const RunResult result = run_postmortem(events, spec, sink, cfg);
  std::printf(
      "postmortem done: build %.3fs, compute %.3fs, %llu iterations total\n",
      result.build_seconds, result.compute_seconds,
      static_cast<unsigned long long>(result.total_iterations));

  // --- 4. Consume the time series ----------------------------------------
  // Print the top-3 vertices of each window.
  for (std::size_t w = 0; w < spec.count; ++w) {
    auto ranked = sink.window(w);  // (vertex, pagerank) pairs
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("window %2zu [%lld..%lld]:", w,
                static_cast<long long>(spec.start(w)),
                static_cast<long long>(spec.end(w)));
    for (std::size_t i = 0; i < std::min<std::size_t>(3, ranked.size()); ++i) {
      std::printf("  v%u=%.4f", ranked[i].first, ranked[i].second);
    }
    std::printf("%s\n", ranked.empty() ? "  (empty window)" : "");
  }
  return 0;
}
