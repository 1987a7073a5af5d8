// Deliberately-dying driver for ci/crash_smoke.sh. Two modes:
//
//   crash_probe segv  <dump_dir>                — installs the crash
//     handler, enables the flight recorder, and dereferences a null
//     pointer from a sink callback a few windows into a postmortem run.
//     The process must die by SIGSEGV *after* leaving a parseable
//     pmpr-crash-<pid>.json behind; reaching the end of main is a bug
//     (exit code 7 so the script can tell "didn't crash" from "crashed
//     wrong").
//
//   crash_probe stall <dump_dir> [watchdog_ms]  — arms the watchdog and
//     makes one sink callback sleep ~8x past the stall threshold. The
//     watchdog must fire mid-sleep and write pmpr-watchdog-<pid>.json
//     naming the stalled phase (window.sink); the run then completes and
//     the probe exits 0.
//
// Lives under tests/tools (not scanned by pmpr-lint's src gate): the
// null-deref and bare sleep below are the whole point of the fixture.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "pmpr.hpp"

using namespace pmpr;

namespace {

/// A load through null that reaches the MMU as SIGSEGV. Exempt from UBSan,
/// which would otherwise report the load and exit before any signal. The
/// pointer is volatile too: GCC at -O1 drops a load through a null it can
/// see, and the helper would return.
__attribute__((no_sanitize_undefined)) void fault_on_null_load() {
  volatile int* volatile null_ptr = nullptr;
  (void)*null_ptr;
}

/// Sink that faults or stalls on one window, passing the rest through.
class MisbehavingSink final : public ResultSink {
 public:
  enum class Mode { kSegv, kStall };

  MisbehavingSink(Mode mode, std::chrono::milliseconds stall)
      : mode_(mode), stall_(stall) {}

  void consume_dense(std::size_t window, std::span<const double>) override {
    misbehave(window);
  }
  void consume_mapped(std::size_t window, std::span<const VertexId>,
                      std::span<const double>) override {
    misbehave(window);
  }

 private:
  void misbehave(std::size_t window) {
    if (window < 2 || fired_.exchange(true)) return;
    if (mode_ == Mode::kSegv) {
      // The induced fault: a load through null, mid-run, with phase spans
      // and window_done breadcrumbs already in the flight recorder.
      std::printf("crash_probe: faulting in window %zu\n", window);
      std::fflush(stdout);
      fault_on_null_load();
    } else {
      std::printf("crash_probe: stalling window %zu for %lld ms\n", window,
                  static_cast<long long>(stall_.count()));
      std::fflush(stdout);
      std::this_thread::sleep_for(stall_);
    }
  }

  const Mode mode_;
  const std::chrono::milliseconds stall_;
  std::atomic<bool> fired_{false};
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: crash_probe <segv|stall> <dump_dir> [watchdog_ms]\n");
    return 2;
  }
  const std::string mode = argv[1];
  const std::string dump_dir = argv[2];
  const long watchdog_ms = argc > 3 ? std::strtol(argv[3], nullptr, 10) : 300;
  if (mode != "segv" && mode != "stall") {
    std::fprintf(stderr, "crash_probe: unknown mode '%s'\n", mode.c_str());
    return 2;
  }

  obs::set_counters_enabled(true);
  obs::set_flight_recorder_enabled(true);
  obs::set_thread_name("main");

  std::unique_ptr<obs::Watchdog> watchdog;
  if (mode == "segv") {
    obs::CrashHandlerOptions crash_opts;
    crash_opts.dump_dir = dump_dir;
    if (!obs::install_crash_handler(crash_opts)) {
      std::fprintf(stderr, "crash_probe: handler install failed\n");
      return 2;
    }
    std::printf("crash_probe: report path %s\n",
                obs::crash_report_path().c_str());
  } else {
    obs::WatchdogOptions wd_opts;
    wd_opts.stall_threshold = std::chrono::milliseconds(watchdog_ms);
    wd_opts.dump_dir = dump_dir;
    watchdog = std::make_unique<obs::Watchdog>(wd_opts);
    watchdog->start();
  }

  const gen::DatasetSpec spec =
      gen::scaled(gen::dataset_by_name("wiki-talk"), 0.002);
  const TemporalEdgeList events = gen::generate(spec, 42);
  const WindowSpec windows = WindowSpec::cover_capped(
      events.min_time(), events.max_time(), 90 * duration::kDay, 86'400, 16);

  MisbehavingSink sink(mode == "segv" ? MisbehavingSink::Mode::kSegv
                                      : MisbehavingSink::Mode::kStall,
                       std::chrono::milliseconds(watchdog_ms * 8));
  PostmortemConfig config = suggest_config_for(events, windows);
  // SpMV keeps the sink site inside the "window.sink" phase (SpMM sinks
  // under "batch.sink"), so the stall dump's phase name is deterministic.
  config.kernel = KernelKind::kSpmv;
  const RunResult result = run_postmortem(events, windows, sink, config);

  if (mode == "segv") {
    // Unreachable when the fault fired; reaching it means the probe is
    // broken (too few windows, sink never called, ...).
    std::fprintf(stderr, "crash_probe: segv mode survived the run (%zu "
                         "windows)\n",
                 result.num_windows);
    return 7;
  }

  watchdog->stop();
  if (watchdog->fires() == 0) {
    std::fprintf(stderr, "crash_probe: watchdog never fired\n");
    return 7;
  }
  std::printf("crash_probe: stall mode done, %llu watchdog fire(s) over %zu "
              "windows\n",
              static_cast<unsigned long long>(watchdog->fires()),
              result.num_windows);
  return 0;
}
