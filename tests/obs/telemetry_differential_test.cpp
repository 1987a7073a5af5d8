// Telemetry must observe, never perturb: with a serial pool (deterministic
// schedule), enabling every telemetry pillar has to leave the PageRank
// output bit-for-bit identical to a run with telemetry off.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/postmortem_runner.hpp"
#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

/// All six telemetry gates, restored on scope exit.
struct AllTelemetry {
  const bool counters = obs::set_counters_enabled(false);
  const bool metrics = obs::set_metrics_enabled(false);
  const bool tracing = obs::set_tracing_enabled(false);
  const bool histograms = obs::set_histograms_enabled(false);
  const bool flightrec = obs::set_flight_recorder_enabled(false);
  const bool heartbeats = obs::set_heartbeats_enabled(false);
  ~AllTelemetry() {
    // Retire this thread's heartbeat slot (the runner's last phase edge
    // left it active) and drop the recorded rings before restoring gates.
    obs::set_heartbeats_enabled(true);
    obs::heartbeat_idle();
    obs::clear_flight_recorder();
    obs::set_counters_enabled(counters);
    obs::set_metrics_enabled(metrics);
    obs::set_tracing_enabled(tracing);
    obs::set_histograms_enabled(histograms);
    obs::set_flight_recorder_enabled(flightrec);
    obs::set_heartbeats_enabled(heartbeats);
  }
  static void enable_all() {
    obs::set_counters_enabled(true);
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    obs::set_histograms_enabled(true);
    obs::set_flight_recorder_enabled(true);
    obs::set_heartbeats_enabled(true);
  }
};

std::vector<std::vector<double>> run_serial(KernelKind kernel,
                                            par::ThreadPool& pool,
                                            RunResult* out = nullptr) {
  const TemporalEdgeList events = test::random_events(61, 40, 2500, 12000);
  const WindowSpec spec = WindowSpec::cover(0, 12000, 4000, 800);
  PostmortemConfig cfg;
  cfg.kernel = kernel;
  cfg.vector_length = 8;
  cfg.partial_init = true;
  cfg.pool = &pool;
  StoreAllSink sink(spec.count);
  const RunResult r = run_postmortem(events, spec, sink, cfg);
  if (out != nullptr) *out = r;
  std::vector<std::vector<double>> dense;
  dense.reserve(spec.count);
  for (std::size_t w = 0; w < spec.count; ++w) {
    dense.push_back(sink.dense(w, events.num_vertices()));
  }
  return dense;
}

class TelemetryDifferential : public ::testing::TestWithParam<KernelKind> {};

TEST_P(TelemetryDifferential, OutputBitIdenticalWithTelemetryOn) {
  AllTelemetry guard;
  par::ThreadPool pool(1);

  obs::set_counters_enabled(false);
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);
  obs::set_histograms_enabled(false);
  const auto plain = run_serial(GetParam(), pool);

  AllTelemetry::enable_all();
  obs::clear_flight_recorder();
  const std::uint64_t beats_before = [] {
    std::uint64_t sum = 0;
    for (const obs::HeartbeatView& v : obs::heartbeat_table()) sum += v.beats;
    return sum;
  }();
  RunResult instrumented;
  const auto traced = run_serial(GetParam(), pool, &instrumented);
  obs::set_tracing_enabled(false);
  obs::clear_trace();

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t w = 0; w < plain.size(); ++w) {
    ASSERT_EQ(plain[w].size(), traced[w].size());
    for (std::size_t v = 0; v < plain[w].size(); ++v) {
      // Exact equality, not a tolerance: telemetry may not reorder a single
      // floating-point operation.
      ASSERT_EQ(plain[w][v], traced[w][v]) << "window " << w << " vertex "
                                           << v;
    }
  }
  // The instrumented run must actually have observed the work it did.
  EXPECT_GT(instrumented.counters[obs::Counter::kEdgesTraversed], 0u);
  EXPECT_EQ(instrumented.counters[obs::Counter::kWindowsProcessed],
            instrumented.num_windows);
  // The phase histograms must have seen every window's iterate phase (SpMM
  // records per batch, so >= 1 recording; SpMV records one per window).
  const obs::PhaseHistogram& iterate =
      instrumented.histograms[obs::Phase::kIterate];
  EXPECT_GT(iterate.total_count(), 0u);
  EXPECT_GT(iterate.sum_ns, 0u);
  EXPECT_GE(iterate.max_ns, iterate.percentile_ns(0.99));
  EXPECT_GT(instrumented.histograms[obs::Phase::kBuild].total_count(), 0u);
  EXPECT_GT(instrumented.histograms[obs::Phase::kSink].total_count(), 0u);
  // The failure-diagnostics pillar observed the same run for free: phase
  // breadcrumbs landed in the flight-recorder rings and the runner's phase
  // edges beat this thread's heartbeat slot.
  EXPECT_GT(obs::flight_recorder_stats().records, 0u);
  std::uint64_t beats_after = 0;
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) {
    beats_after += v.beats;
  }
  EXPECT_GT(beats_after, beats_before);
}

INSTANTIATE_TEST_SUITE_P(Kernels, TelemetryDifferential,
                         ::testing::Values(KernelKind::kSpmv,
                                           KernelKind::kSpmm),
                         [](const auto& pinfo) {
                           return std::string(to_string(pinfo.param));
                         });

TEST(TelemetryDifferential, TrajectoriesOnlyWhenMetricsEnabled) {
  AllTelemetry guard;
  par::ThreadPool pool(1);

  obs::set_metrics_enabled(false);
  RunResult off;
  run_serial(KernelKind::kSpmv, pool, &off);
  ASSERT_EQ(off.residual_trajectories.size(), off.num_windows);
  for (const auto& traj : off.residual_trajectories) {
    EXPECT_TRUE(traj.empty());
  }

  obs::set_metrics_enabled(true);
  RunResult on;
  run_serial(KernelKind::kSpmv, pool, &on);
  ASSERT_EQ(on.residual_trajectories.size(), on.num_windows);
  std::size_t populated = 0;
  for (std::size_t w = 0; w < on.num_windows; ++w) {
    // Windows past the last event are legitimately empty (zero iterations);
    // every window that iterated must carry its trajectory.
    if (on.residual_trajectories[w].empty()) continue;
    ++populated;
    EXPECT_GT(on.final_residuals[w], 0.0) << "window " << w;
    // The trajectory's last entry is the residual the window converged at.
    EXPECT_EQ(on.residual_trajectories[w].back(), on.final_residuals[w]);
  }
  EXPECT_GT(populated, on.num_windows / 2);
}

}  // namespace
}  // namespace pmpr
