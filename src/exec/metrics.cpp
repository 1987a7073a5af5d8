#include "exec/metrics.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/crash.hpp"
#include "obs/flightrec.hpp"
#include "obs/watchdog.hpp"

namespace pmpr::obs {

namespace {

/// Shortest-round-trip-ish double formatting for JSON (no inf/nan inputs
/// by contract: residuals and seconds are finite).
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void write_phase_histogram(const PhaseHistogram& h, std::ostream& out) {
  out << "{\"count\": " << h.total_count()
      << ", \"mean_ns\": " << fmt(h.mean_ns())
      << ", \"p50_ns\": " << h.percentile_ns(0.50)
      << ", \"p90_ns\": " << h.percentile_ns(0.90)
      << ", \"p99_ns\": " << h.percentile_ns(0.99)
      << ", \"max_ns\": " << h.max_ns << ", \"sum_ns\": " << h.sum_ns
      << "}";
}

}  // namespace

void write_metrics_json(const RunResult& result, std::ostream& out) {
  out << "{\n";
  out << "  \"schema\": \"pmpr-metrics-v5\",\n";
  out << "  \"build_seconds\": " << fmt(result.build_seconds) << ",\n";
  out << "  \"compute_seconds\": " << fmt(result.compute_seconds) << ",\n";
  out << "  \"total_seconds\": " << fmt(result.total_seconds()) << ",\n";
  out << "  \"num_windows\": " << result.num_windows << ",\n";
  out << "  \"total_iterations\": " << result.total_iterations << ",\n";
  out << "  \"peak_memory_bytes\": " << result.peak_memory_bytes << ",\n";
  // Resolved SIMD ISA of the run ("scalar"/"avx2"/"avx512"; "" for offline
  // and streaming runs and for results predating the field). The
  // simd_sweep_* counters say how many compiled SpMM sweeps actually ran on
  // each ISA.
  out << "  \"simd_isa\": \"" << result.simd_isa << "\",\n";

  out << "  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << to_string(static_cast<Counter>(i))
        << "\": " << result.counters.values[i];
  }
  out << "\n  },\n";

  out << "  \"histograms\": {";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    out << (p == 0 ? "\n" : ",\n") << "    \""
        << to_string(static_cast<Phase>(p)) << "\": ";
    write_phase_histogram(result.histograms.phases[p], out);
  }
  out << "\n  },\n";

  // Paging residency and read amplification (all zeros for in-RAM runs):
  // the mincore-scanned store residency peak against the budget charge the
  // LRU policy maintained. The signed delta exposes readahead (positive)
  // and lazy faulting (negative).
  out << "  \"memory\": {\n";
  out << "    \"oocore_resident_peak_charged_bytes\": "
      << result.oocore_resident_peak_bytes << ",\n";
  out << "    \"oocore_resident_peak_measured_bytes\": "
      << result.oocore_measured_resident_peak_bytes << ",\n";
  out << "    \"oocore_residency_delta_bytes\": "
      << (static_cast<long long>(result.oocore_measured_resident_peak_bytes) -
          static_cast<long long>(result.oocore_resident_peak_bytes))
      << ",\n";
  out << "    \"read_amplification\": " << fmt(result.read_amplification)
      << "\n  },\n";

  // Diagnostics pillar: flight-recorder health, watchdog totals, and
  // the live heartbeat table, read at write time (process-wide state, not
  // a RunResult delta — a metrics file is often the last artifact a sick
  // run manages to produce). All zeros/empty when the gates were off.
  const FlightRecorderStats fr = flight_recorder_stats();
  const WatchdogStats wd = watchdog_stats();
  out << "  \"diagnostics\": {\n";
  out << "    \"flight_recorder\": {\"enabled\": "
      << (flight_recorder_enabled() ? "true" : "false")
      << ", \"records\": " << fr.records << ", \"dropped\": " << fr.dropped
      << ", \"drains\": " << fr.drains << ", \"threads\": " << fr.threads
      << "},\n";
  out << "    \"watchdog\": {\"arms\": " << wd.arms
      << ", \"fires\": " << wd.fires
      << ", \"max_heartbeat_age_ns\": " << wd.max_heartbeat_age_ns
      << ", \"last_stalled_phase\": \"" << wd.last_stalled_phase << "\"},\n";
  out << "    \"crash_handler_installed\": "
      << (crash_handler_installed() ? "true" : "false") << ",\n";
  out << "    \"heartbeats\": [";
  const std::vector<HeartbeatView> beats = heartbeat_table();
  for (std::size_t i = 0; i < beats.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "      {\"tid\": " << beats[i].tid
        << ", \"label\": \"" << beats[i].label << "\", \"phase\": \""
        << beats[i].phase << "\", \"age_ns\": " << beats[i].age_ns
        << ", \"beats\": " << beats[i].beats << "}";
  }
  out << (beats.empty() ? "]\n" : "\n    ]\n") << "  },\n";

  out << "  \"windows\": [";
  for (std::size_t w = 0; w < result.num_windows; ++w) {
    const int iters = w < result.iterations_per_window.size()
                          ? result.iterations_per_window[w]
                          : 0;
    const double final_residual =
        w < result.final_residuals.size() ? result.final_residuals[w] : 0.0;
    out << (w == 0 ? "\n" : ",\n");
    out << "    {\"window\": " << w << ", \"iterations\": " << iters
        << ", \"final_residual\": " << fmt(final_residual)
        << ", \"residuals\": [";
    if (w < result.residual_trajectories.size()) {
      const auto& traj = result.residual_trajectories[w];
      for (std::size_t i = 0; i < traj.size(); ++i) {
        out << (i == 0 ? "" : ", ") << fmt(traj[i]);
      }
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

bool write_metrics_json(const RunResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_json(result, out);
  return static_cast<bool>(out);
}

}  // namespace pmpr::obs
