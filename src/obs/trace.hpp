// Runtime telemetry: scoped trace spans (observability pillar 2).
//
// `PMPR_TRACE_SPAN("phase.name")` opens an RAII span covering the enclosing
// scope; per-thread buffers collect (name, tid, t_start, t_end) records and
// `write_chrome_trace` exports them as Chrome trace-event JSON — load the
// file in Perfetto (https://ui.perfetto.dev) or chrome://tracing to see the
// scheduler's window/batch interleaving across threads.
//
// Cost discipline: when tracing is disabled the span constructor is one
// relaxed atomic load + branch and the destructor a null check. When
// enabled, a span costs two steady_clock reads plus one append under the
// (uncontended, per-thread) buffer mutex — spans therefore instrument
// runner *phases* (window build, iterate, sink), never kernel inner loops.
// Names must be string literals (or otherwise outlive the registry): only
// the pointer is stored.
//
// Span nesting needs no explicit bookkeeping: Chrome "X" (complete) events
// on one tid are re-nested by containment in the viewer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/slots.hpp"

namespace pmpr::obs {

namespace detail {
/// Inline so tracing_enabled() compiles to one load at every call site.
inline std::atomic<bool> g_tracing_enabled{false};
/// Appends a finished span to the calling thread's buffer (registering the
/// thread on first use).
void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns);
/// `s` as a JSON string body: quotes and backslashes escaped, control
/// characters dropped. Shared by the trace and blackbox writers.
[[nodiscard]] std::string escape_json(std::string_view s);
}  // namespace detail

/// Whether spans record anything. The single check on the disabled path.
[[nodiscard]] inline bool tracing_enabled() {
  // relaxed: advisory on/off gate — a stale read only clips a span at the
  // toggle boundary; no data is published through this flag.
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables span recording. Returns the previous setting.
bool set_tracing_enabled(bool enabled);

/// Drops every recorded span (thread registrations are kept).
void clear_trace();

/// Nanoseconds since the process-wide trace epoch (the first touch of the
/// trace registry). Monotonic.
[[nodiscard]] std::int64_t trace_now_ns();

/// One finished span, for tests and ad-hoc inspection.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;  ///< Thread slot of the recorder (obs/slots.hpp).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Copies out every recorded span, sorted by (start, tid). Safe to call
/// while spans are still being recorded (buffers are locked per thread);
/// the result is then a consistent prefix per thread.
[[nodiscard]] std::vector<TraceEvent> collect_trace();

/// Number of spans currently buffered.
[[nodiscard]] std::size_t trace_event_count();

/// Writes the Chrome trace-event JSON: an object with a "traceEvents"
/// array of "ph":"X" complete events (ts/dur in microseconds) and —
/// whenever any event exists — "ph":"M" process_name/thread_name metadata
/// (one per named thread slot, see set_thread_name) so Perfetto labels the
/// tracks.
void write_chrome_trace(std::ostream& out);

/// File variant; returns false on IO failure.
[[nodiscard]] bool write_chrome_trace(const std::string& path);

/// RAII scope timer. Prefer the PMPR_TRACE_SPAN macro.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (tracing_enabled()) {
      name_ = name;
      start_ns_ = trace_now_ns();
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::record_span(name_, start_ns_, trace_now_ns());
    }
  }

 private:
  const char* name_ = nullptr;  ///< nullptr = tracing was off at entry.
  std::int64_t start_ns_ = 0;
};

}  // namespace pmpr::obs

#define PMPR_TRACE_CONCAT2(a, b) a##b
#define PMPR_TRACE_CONCAT(a, b) PMPR_TRACE_CONCAT2(a, b)

/// Opens a span named `name` (a string literal) covering the enclosing
/// scope.
#define PMPR_TRACE_SPAN(name) \
  ::pmpr::obs::TraceSpan PMPR_TRACE_CONCAT(pmpr_trace_span_, __LINE__)(name)
