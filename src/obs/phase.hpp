// The runner-phase scope: one line per phase site feeds every per-phase
// surface of obs.
//
// PMPR_PHASE(obs::Phase::kBuild, "window.build", w) covers the enclosing
// scope and records
//   * a trace span "window.build" (if tracing was on at entry),
//   * one kBuild histogram sample (if histograms were on at entry),
//   * flight-recorder kSpanBegin / kSpanEnd events carrying w, and
//   * a heartbeat in "window.build" at both edges.
// The name is the one word the trace, the recorder, the heartbeat table and
// a stall report share; the Phase is the histogram it lands in. Names must
// be string literals (only the pointer is stored). With every gate off a
// scope costs four relaxed loads at entry and two at exit.
#pragma once

#include <cstdint>

#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"

namespace pmpr::obs {

class PhaseScope {
 public:
  PhaseScope(Phase phase, const char* name, std::uint64_t id)
      : phase_(phase),
        name_(name),
        id_(id),
        traced_(tracing_enabled()),
        timed_(histograms_enabled()) {
    if (traced_ || timed_) start_ns_ = trace_now_ns();
    fr_record(FrEvent::kSpanBegin, name_, id_);
    heartbeat(name_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() {
    if (traced_ || timed_) {
      const std::int64_t end_ns = trace_now_ns();
      if (traced_) detail::record_span(name_, start_ns_, end_ns);
      if (timed_) {
        detail::histogram_record(
            phase_, end_ns > start_ns_
                        ? static_cast<std::uint64_t>(end_ns - start_ns_)
                        : 0);
      }
    }
    fr_record(FrEvent::kSpanEnd, name_, id_);
    heartbeat(name_);
  }

 private:
  const Phase phase_;
  const char* const name_;
  const std::uint64_t id_;
  const bool traced_;
  const bool timed_;
  std::int64_t start_ns_ = 0;
};

}  // namespace pmpr::obs

/// Opens a PhaseScope over the enclosing scope (see above).
#define PMPR_PHASE(phase, name, id)                                   \
  ::pmpr::obs::PhaseScope PMPR_TRACE_CONCAT(pmpr_phase_, __LINE__)( \
      phase, name, id)
