// One-shot driver for a single execution model with the full telemetry
// stack: scheduler/kernel counters, per-window convergence metrics, and a
// Perfetto-loadable trace.
//
//   ./pmpr_run --model postmortem --trace trace.json --metrics metrics.json
//
// Load trace.json in https://ui.perfetto.dev (or chrome://tracing) to see
// the per-phase spans; metrics.json holds the pmpr-metrics-v4 record
// (counters, phase-latency histograms, per-tag memory accounting, sampler
// summary, diagnostics, residual trajectories). Add --profile to run the
// background scheduler sampler during the run: its summary lands in the JSON
// and, with --trace, its queue-depth/parked-worker gauges plus the mem.*
// memory tracks appear as counter tracks under the span timeline.
// ci/obs_smoke.sh validates both shapes; --mem-report prints the per-tag
// table on stdout.
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <string>

#include "pagerank/window_state.hpp"
#include "pmpr.hpp"

using namespace pmpr;

namespace {

/// Rejects a bad flag value: one line on stderr, exit status 1.
int reject(const std::string& why) {
  std::fprintf(stderr, "pmpr_run: %s\n", why.c_str());
  return 1;
}

/// The user-facing part of a name parser's exception: drops the failed
/// check's source location that InvariantError puts in front.
std::string reason(const std::exception& e) {
  const std::string what = e.what();
  const std::string::size_type at = what.find(" failed: ");
  return at == std::string::npos ? what : what.substr(at + 9);
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "postmortem";
  std::string dataset = "wiki-talk";
  double scale = 0.01;
  std::int64_t seed = 42;
  std::int64_t delta_days = 90;
  std::int64_t sw = 86'400;
  std::int64_t max_windows = 64;
  std::int64_t vector_length = 0;
  std::string simd = "auto";
  std::string storage = "in-ram";
  std::int64_t memory_budget_mb = 0;
  std::string spill_path;
  std::int64_t parts = 0;
  std::string trace_path;
  std::string metrics_path;
  bool profile = false;
  bool mem_report = false;
  std::int64_t profile_interval_ms = 10;
  std::string flight_recorder_path;
  std::int64_t watchdog_ms = 0;
  std::string crash_dump_dir;
  Options opts("Run one execution model with telemetry enabled");
  opts.add("model", &model, "offline | streaming | postmortem");
  opts.add("max-lanes", &vector_length,
           "postmortem SpMM lane width, 0..512 (0 = suggested config's "
           "width)");
  opts.add("simd", &simd,
           "auto | scalar | avx2 | avx512 — ISA for the compiled SpMM "
           "sweeps; forced modes fail fast when unsupported. A postmortem "
           "run's resolved ISA lands in the metrics JSON as \"simd_isa\" "
           "and the simd_sweep_* counters record per-ISA sweep invocations");
  opts.add("storage", &storage,
           "postmortem representation: in-ram | out-of-core (ranks are "
           "bit-identical across the two; out-of-core with a budget that "
           "holds the whole store keeps every part compressed in RAM)");
  opts.add("memory-budget-mb", &memory_budget_mb,
           "out-of-core: hard cap on resident compressed payload, in MiB "
           "(0 = page one part at a time)");
  opts.add("spill", &spill_path,
           "out-of-core: store-file path (empty = unique temp file, "
           "removed on exit)");
  opts.add("parts", &parts,
           "postmortem multi-window graph count Y (0 = suggested config)");
  opts.add("dataset", &dataset,
           "surrogate name (see `pmpr_bench table1` for the list)");
  opts.add("scale", &scale, "surrogate dataset scale factor");
  opts.add("seed", &seed, "generator seed");
  opts.add("delta-days", &delta_days, "window size in days");
  opts.add("sw", &sw, "sliding offset in seconds");
  opts.add("max-windows", &max_windows,
           "cap on the number of windows (>= 1)");
  opts.add("trace", &trace_path,
           "write a Chrome trace-event JSON (Perfetto-loadable) here");
  opts.add("metrics", &metrics_path,
           "write the pmpr-metrics-v4 run record here");
  opts.add("profile", &profile,
           "sample the scheduler during the run (sampler summary in "
           "--metrics, counter tracks in --trace)");
  opts.add("mem-report", &mem_report,
           "print the per-tag memory accounting table (live/peak per "
           "MemTag, measured vs estimated peak) at exit");
  opts.add("profile-interval-ms", &profile_interval_ms,
           "sampler tick period in milliseconds");
  opts.add("flight-recorder", &flight_recorder_path,
           "keep the in-memory flight recorder on and write its "
           "pmpr-blackbox-v1 JSON (recent events per thread) here at exit");
  opts.add("watchdog-ms", &watchdog_ms,
           "arm a stall watchdog: a worker phase silent for this many "
           "milliseconds triggers a diagnostic dump naming the stalled "
           "phase (0 = off)");
  opts.add("crash-dump-dir", &crash_dump_dir,
           "install the fatal-signal handler; on SIGSEGV/SIGBUS/SIGABRT/"
           "SIGFPE a pmpr-crash-<pid>.json postmortem lands here (also "
           "enables the flight recorder)");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 1;
  // Every flag is checked here, before any work: a bad value exits 1 with
  // one line instead of aborting, wrapping around, or silently falling
  // back to a default.
  if (model != "offline" && model != "streaming" && model != "postmortem") {
    return reject("unknown --model '" + model +
                  "' (expected offline, streaming, postmortem)");
  }
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    return reject("--scale " + std::to_string(scale) +
                  " must be a finite value > 0");
  }
  const std::int64_t max_delta_days =
      std::numeric_limits<std::int64_t>::max() / duration::kDay;
  if (delta_days < 0 || delta_days > max_delta_days) {
    return reject("--delta-days " + std::to_string(delta_days) +
                  " out of range [0, " + std::to_string(max_delta_days) +
                  "]");
  }
  if (sw < 1) return reject("--sw " + std::to_string(sw) + " must be >= 1");
  if (max_windows < 1) {
    return reject("--max-windows " + std::to_string(max_windows) +
                  " must be >= 1");
  }
  if (vector_length < 0 ||
      vector_length > static_cast<std::int64_t>(kMaxSpmmLanes)) {
    // Fail fast rather than letting the runner clamp: a silently narrowed
    // batch would make a mistyped width look like a perf regression.
    return reject("--max-lanes " + std::to_string(vector_length) +
                  " out of range [0, " + std::to_string(kMaxSpmmLanes) +
                  "] (0 = suggested width)");
  }
  if (parts < 0) {
    return reject("--parts " + std::to_string(parts) +
                  " must be >= 0 (0 = suggested count)");
  }
  if (memory_budget_mb < 0 ||
      static_cast<std::uint64_t>(memory_budget_mb) >
          std::numeric_limits<std::size_t>::max() / (1024 * 1024)) {
    return reject("--memory-budget-mb " + std::to_string(memory_budget_mb) +
                  " must be >= 0 and fit in bytes (0 = one part at a time)");
  }
  if (profile_interval_ms < 1) {
    return reject("--profile-interval-ms " +
                  std::to_string(profile_interval_ms) + " must be >= 1");
  }
  if (watchdog_ms < 0) {
    return reject("--watchdog-ms " + std::to_string(watchdog_ms) +
                  " must be >= 0 (0 = off)");
  }
  SimdMode simd_mode = SimdMode::kAuto;
  StorageKind storage_kind = StorageKind::kInRam;
  const gen::DatasetSpec* dataset_spec = nullptr;
  try {
    // The ISA is resolved here too, so a forced ISA the host lacks fails
    // fast for every model, not only for the postmortem sweeps that use it.
    simd_mode = parse_simd_mode(simd);
    (void)resolve_simd(simd_mode);
    storage_kind = parse_storage_kind(storage);
    dataset_spec = &gen::dataset_by_name(dataset);
  } catch (const std::exception& e) {
    return reject(reason(e));
  }

  // Counters, histograms, and per-iteration metrics always on here (this
  // binary exists to show them); tracing only when a --trace path was
  // given.
  obs::set_counters_enabled(true);
  obs::set_metrics_enabled(true);
  obs::set_histograms_enabled(true);
  obs::set_memory_accounting_enabled(true);
  if (!trace_path.empty()) obs::set_tracing_enabled(true);
  // Failure diagnostics: the recorder is cheap enough to keep on whenever
  // any of the three surfaces (blackbox file, watchdog dump, crash report)
  // could want its events.
  if (!flight_recorder_path.empty() || !crash_dump_dir.empty() ||
      watchdog_ms > 0) {
    obs::set_flight_recorder_enabled(true);
  }
  if (!crash_dump_dir.empty()) {
    obs::CrashHandlerOptions crash_opts;
    crash_opts.dump_dir = crash_dump_dir;
    if (!obs::install_crash_handler(crash_opts)) {
      std::fprintf(stderr, "failed to install the crash handler\n");
      return 1;
    }
  }
  obs::set_thread_name("main");

  const gen::DatasetSpec spec = gen::scaled(*dataset_spec, scale);
  const TemporalEdgeList events =
      gen::generate(spec, static_cast<std::uint64_t>(seed));
  const WindowSpec windows = WindowSpec::cover_capped(
      events.min_time(), events.max_time(), delta_days * duration::kDay, sw,
      static_cast<std::size_t>(max_windows));
  std::printf("%s surrogate: %zu events, %u vertices, %zu windows\n",
              dataset.c_str(), events.size(), events.num_vertices(),
              windows.count);

  std::unique_ptr<obs::Sampler> sampler;
  if (profile) {
    obs::SamplerOptions sampler_opts;
    sampler_opts.interval = std::chrono::milliseconds(profile_interval_ms);
    sampler = std::make_unique<obs::Sampler>(par::ThreadPool::global(),
                                             sampler_opts);
    sampler->start();
  }

  std::unique_ptr<obs::Watchdog> watchdog;
  if (watchdog_ms > 0) {
    obs::WatchdogOptions wd_opts;
    wd_opts.stall_threshold = std::chrono::milliseconds(watchdog_ms);
    wd_opts.dump_dir = crash_dump_dir.empty() ? "." : crash_dump_dir;
    watchdog = std::make_unique<obs::Watchdog>(wd_opts);
    watchdog->start();
  }

  ChecksumSink sink(windows.count);
  RunResult result;
  if (model == "offline") {
    result = run_offline(events, windows, sink, OfflineOptions{});
  } else if (model == "streaming") {
    result = run_streaming(events, windows, sink, StreamingOptions{});
  } else {
    PostmortemConfig config = suggest_config_for(events, windows);
    config.simd = simd_mode;
    if (vector_length > 0) {
      config.vector_length = static_cast<std::size_t>(vector_length);
    }
    config.storage = storage_kind;
    config.memory_budget_bytes =
        static_cast<std::size_t>(memory_budget_mb) * 1024 * 1024;
    config.spill_path = spill_path;
    if (parts > 0) config.num_multi_windows = static_cast<std::size_t>(parts);
    result = run_postmortem(events, windows, sink, config);
  }

  std::printf("%-10s : build %7.3fs  compute %7.3fs  total %7.3fs  "
              "(%llu iterations, ~%.1f MiB peak)\n",
              model.c_str(), result.build_seconds, result.compute_seconds,
              result.total_seconds(),
              static_cast<unsigned long long>(result.total_iterations),
              static_cast<double>(result.peak_memory_bytes) / (1024 * 1024));
  // Order-independent digest of every window's ranks; two runs that agree
  // bit-for-bit print the same value (ci/oocore_smoke.sh diffs this line
  // between storage kinds).
  double checksum = 0.0;
  for (const double w : sink.weighted()) checksum += w;
  std::printf("checksum   : %.17g over %zu windows\n", checksum,
              sink.weighted().size());
  if (model == "postmortem") {
    std::printf("storage    : %s, representation %.2f MiB\n", storage.c_str(),
                static_cast<double>(result.representation_bytes) /
                    (1024 * 1024));
    if (result.oocore_raw_bytes > 0) {
      std::printf("oocore     : store %.2f MiB / raw %.2f MiB (%.2fx), "
                  "peak resident %.2f MiB, %llu evictions, %llu refaults\n",
                  static_cast<double>(result.oocore_store_bytes) /
                      (1024 * 1024),
                  static_cast<double>(result.oocore_raw_bytes) / (1024 * 1024),
                  static_cast<double>(result.oocore_raw_bytes) /
                      static_cast<double>(result.oocore_store_bytes),
                  static_cast<double>(result.oocore_resident_peak_bytes) /
                      (1024 * 1024),
                  static_cast<unsigned long long>(
                      result.counters[obs::Counter::kPartsEvicted]),
                  static_cast<unsigned long long>(
                      result.counters[obs::Counter::kPartRefaults]));
      // Ground truth (mincore page scan of the store) next to the charge
      // the LRU policy maintained; ci/oocore_smoke.sh asserts the measured
      // value honors the budget (modulo readahead slack).
      std::printf("residency  : measured peak %zu bytes (%.2f MiB) vs "
                  "charged %zu bytes\n",
                  result.oocore_measured_resident_peak_bytes,
                  static_cast<double>(
                      result.oocore_measured_resident_peak_bytes) /
                      (1024 * 1024),
                  result.oocore_resident_peak_bytes);
    }
    if (result.read_amplification > 0.0) {
      std::printf("read-amp   : %.3fx (decoded %llu B / delivered %llu B)\n",
                  result.read_amplification,
                  static_cast<unsigned long long>(
                      result.counters[obs::Counter::kBytesDecoded]),
                  static_cast<unsigned long long>(
                      result.counters[obs::Counter::kWindowOutputBytes]));
    }
  }
  const std::size_t maxrss = static_cast<std::size_t>(obs::peak_rss_bytes());
  if (maxrss > 0) {
    std::printf("maxrss     : %zu bytes (%.1f MiB)\n", maxrss,
                static_cast<double>(maxrss) / (1024 * 1024));
  }
  std::printf("simd       : %s (%llu scalar / %llu avx2 / %llu avx512 "
              "sweeps)\n",
              result.simd_isa.c_str(),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kSimdSweepScalar]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kSimdSweepAvx2]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kSimdSweepAvx512]));
  if (watchdog != nullptr) {
    watchdog->stop();
    const obs::WatchdogStats wd = obs::watchdog_stats();
    std::printf("watchdog   : %lldms threshold, %llu stall(s)%s%s\n",
                static_cast<long long>(watchdog_ms),
                static_cast<unsigned long long>(watchdog->fires()),
                watchdog->fires() > 0 ? ", last stalled phase " : "",
                watchdog->fires() > 0 ? wd.last_stalled_phase.c_str() : "");
  }
  if (sampler != nullptr) {
    sampler->stop();
    const obs::SamplerSummary sum = sampler->summary();
    std::printf("sampler    : %llu ticks @ %llums — queue mean %.1f max "
                "%llu, parked mean %.1f, steal success %.2f\n",
                static_cast<unsigned long long>(sum.num_samples),
                static_cast<unsigned long long>(sum.interval_ms),
                sum.mean_total_queued,
                static_cast<unsigned long long>(sum.max_total_queued),
                sum.mean_parked_workers, sum.mean_steal_success_rate);
  }
  const obs::PhaseHistogram& iter_hist =
      result.histograms[obs::Phase::kIterate];
  if (iter_hist.total_count() > 0) {
    std::printf("iterate    : p50 %lluns  p90 %lluns  p99 %lluns  max "
                "%lluns over %llu windows\n",
                static_cast<unsigned long long>(iter_hist.percentile_ns(0.5)),
                static_cast<unsigned long long>(iter_hist.percentile_ns(0.9)),
                static_cast<unsigned long long>(
                    iter_hist.percentile_ns(0.99)),
                static_cast<unsigned long long>(iter_hist.max_ns),
                static_cast<unsigned long long>(iter_hist.total_count()));
  }
  std::printf("counters   : %llu edges traversed, %llu tasks spawned, "
              "%llu/%llu steals, %llu vertices reused\n",
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kEdgesTraversed]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kTasksSpawned]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kStealsSucceeded]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kStealsAttempted]),
              static_cast<unsigned long long>(
                  result.counters[obs::Counter::kVerticesReused]));

  if (mem_report) {
    // Per-tag accounting at exit: live should be near zero for run-scoped
    // tags (their RAII charges released with the representation), peak is
    // the process watermark the estimate is audited against.
    std::printf("mem-report : %-16s %14s %14s %14s\n", "tag", "alloc (B)",
                "live (B)", "peak (B)");
    for (std::size_t i = 0; i < obs::kNumMemTags; ++i) {
      const obs::MemTagSnapshot& t = result.memory.tags[i];
      std::printf("mem-report : %-16s %14llu %14lld %14llu\n",
                  std::string(obs::to_string(static_cast<obs::MemTag>(i)))
                      .c_str(),
                  static_cast<unsigned long long>(t.alloc_bytes),
                  static_cast<long long>(t.live_bytes),
                  static_cast<unsigned long long>(t.peak_bytes));
    }
    const double measured =
        static_cast<double>(result.memory.total_peak_bytes);
    const double estimate =
        static_cast<double>(result.peak_memory_estimate_bytes);
    std::printf("mem-report : peak measured %.2f MiB vs estimate %.2f MiB "
                "(%+.1f%%)\n",
                measured / (1024 * 1024), estimate / (1024 * 1024),
                estimate > 0.0 ? (measured - estimate) / estimate * 100.0
                               : 0.0);
  }

  if (!metrics_path.empty()) {
    if (!obs::write_metrics_json(result, metrics_path, sampler.get())) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    std::printf("metrics    : %s\n", metrics_path.c_str());
  }
  if (!flight_recorder_path.empty()) {
    const obs::FlightRecorderStats fr = obs::flight_recorder_stats();
    if (!obs::write_blackbox_json(flight_recorder_path)) {
      std::fprintf(stderr, "failed to write the flight recorder to %s\n",
                   flight_recorder_path.c_str());
      return 1;
    }
    std::printf("blackbox   : %s (%llu events recorded, %llu aged out of "
                "the rings, %llu threads)\n",
                flight_recorder_path.c_str(),
                static_cast<unsigned long long>(fr.records),
                static_cast<unsigned long long>(fr.dropped),
                static_cast<unsigned long long>(fr.threads));
  }
  if (!trace_path.empty()) {
    obs::set_tracing_enabled(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("trace      : %s (%zu events; load in ui.perfetto.dev)\n",
                trace_path.c_str(), obs::trace_event_count());
  }
  return 0;
}
