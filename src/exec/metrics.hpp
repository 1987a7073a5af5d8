// Runtime telemetry: run-metrics serialization (observability pillar 3).
//
// Lives in exec/ (not obs/) because it serializes exec's RunResult: the
// exporter sits above both the runners and the telemetry layer in the
// module DAG (ci/layers.toml). The API keeps the pmpr::obs namespace it
// has always had — callers say obs::write_metrics_json.
//
// Every runner fills RunResult with per-window convergence data, telemetry
// counter deltas, per-phase latency histograms, and the paging residency
// and read amplification of out-of-core runs; write_metrics_json emits the
// whole record as one JSON object (schema "pmpr-metrics-v5", validated by
// ci/obs_smoke.sh). Benchmarks and the pmpr_run example expose it via
// `--metrics <path>`. Every section is always present — zeroed when its
// gate was off — so consumers need no existence checks.
#pragma once

#include <iosfwd>
#include <string>

#include "exec/results.hpp"

namespace pmpr::obs {

/// Writes `result` as one JSON object:
///   { "schema": "pmpr-metrics-v5", "build_seconds": ..., ...,
///     "counters": {"tasks_spawned": ...},
///     "histograms": {"build": {"count": ..., "p50_ns": ..., ...}, ...},
///     "memory": {"oocore_resident_peak_charged_bytes": ..., ...,
///                "read_amplification": ...},
///     "diagnostics": {"flight_recorder": {...}, "watchdog": {...},
///                     "crash_handler_installed": ..., "heartbeats": [...]},
///     "windows": [{...}, ...] }
void write_metrics_json(const RunResult& result, std::ostream& out);

/// File variant; returns false on IO failure.
[[nodiscard]] bool write_metrics_json(const RunResult& result,
                                      const std::string& path);

}  // namespace pmpr::obs
