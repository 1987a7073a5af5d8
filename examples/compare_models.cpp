// Side-by-side comparison of the three execution models on one dataset —
// a command-line version of the paper's Fig. 5 experiment that also
// verifies the models agree on the results (the fairness check of §5.1).
//
//   ./compare_models --dataset wiki-talk --delta-days 90 --sw 86400
#include <cmath>
#include <cstdio>

#include "pmpr.hpp"

using namespace pmpr;

int main(int argc, char** argv) {
  std::string dataset = "wiki-talk";
  double scale = 0.1;
  std::int64_t seed = 42;
  std::int64_t delta_days = 90;
  std::int64_t sw = 86'400;
  std::int64_t max_windows = 128;
  Options opts("Compare offline / streaming / postmortem on a surrogate");
  opts.add("dataset", &dataset,
           "surrogate name (see `pmpr_bench table1` for the list)");
  opts.add("scale", &scale, "surrogate dataset scale factor");
  opts.add("seed", &seed, "generator seed");
  opts.add("delta-days", &delta_days, "window size in days");
  opts.add("sw", &sw, "sliding offset in seconds");
  opts.add("max-windows", &max_windows, "cap on the number of windows");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 1;

  const gen::DatasetSpec spec =
      gen::scaled(gen::dataset_by_name(dataset), scale);
  const TemporalEdgeList events =
      gen::generate(spec, static_cast<std::uint64_t>(seed));
  const WindowSpec windows = WindowSpec::cover_capped(
      events.min_time(), events.max_time(), delta_days * duration::kDay, sw,
      static_cast<std::size_t>(max_windows));

  std::printf("%s surrogate: %zu events, %u vertices, %zu windows "
              "(delta=%lldd, sw=%llds)\n",
              dataset.c_str(), events.size(), events.num_vertices(),
              windows.count, static_cast<long long>(delta_days),
              static_cast<long long>(sw));

  // --- offline ------------------------------------------------------------
  StoreAllSink offline_sink(windows.count);
  OfflineOptions offline_opts;
  const RunResult offline =
      run_offline(events, windows, offline_sink, offline_opts);
  std::printf("offline    : build %7.3fs  compute %7.3fs  total %7.3fs  "
              "(%llu iterations)\n",
              offline.build_seconds, offline.compute_seconds,
              offline.total_seconds(),
              static_cast<unsigned long long>(offline.total_iterations));

  // --- streaming ------------------------------------------------------------
  StoreAllSink streaming_sink(windows.count);
  StreamingOptions streaming_opts;
  const RunResult streaming =
      run_streaming(events, windows, streaming_sink, streaming_opts);
  std::printf("streaming  : mutate %6.3fs  compute %7.3fs  total %7.3fs  "
              "(%llu iterations)\n",
              streaming.build_seconds, streaming.compute_seconds,
              streaming.total_seconds(),
              static_cast<unsigned long long>(streaming.total_iterations));

  // --- postmortem ---------------------------------------------------------
  StoreAllSink postmortem_sink(windows.count);
  const PostmortemConfig cfg = suggest_config_for(events, windows);
  const RunResult postmortem =
      run_postmortem(events, windows, postmortem_sink, cfg);
  std::printf("postmortem : build %7.3fs  compute %7.3fs  total %7.3fs  "
              "(%llu iterations, mode=%s kernel=%s)\n",
              postmortem.build_seconds, postmortem.compute_seconds,
              postmortem.total_seconds(),
              static_cast<unsigned long long>(postmortem.total_iterations),
              std::string(to_string(cfg.mode)).c_str(),
              std::string(to_string(cfg.kernel)).c_str());

  std::printf("\nspeedup of postmortem: %.1fx over streaming, %.1fx over "
              "offline\n",
              streaming.total_seconds() / postmortem.total_seconds(),
              offline.total_seconds() / postmortem.total_seconds());

  // --- fairness check -------------------------------------------------------
  double max_diff = 0.0;
  for (std::size_t w = 0; w < windows.count; ++w) {
    const auto a = offline_sink.dense(w, events.num_vertices());
    const auto b = streaming_sink.dense(w, events.num_vertices());
    const auto c = postmortem_sink.dense(w, events.num_vertices());
    for (std::size_t v = 0; v < a.size(); ++v) {
      max_diff = std::max(max_diff, std::abs(a[v] - b[v]));
      max_diff = std::max(max_diff, std::abs(a[v] - c[v]));
    }
  }
  std::printf("max cross-model PageRank difference: %.2e %s\n", max_diff,
              max_diff < 1e-6 ? "(models agree)" : "(MISMATCH!)");
  return max_diff < 1e-6 ? 0 : 2;
}
