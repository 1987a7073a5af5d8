// Runtime telemetry: the flight recorder (observability pillar 6 —
// failure-time diagnostics).
//
// The other pillars explain runs that finish. This one explains runs that
// don't: every thread owns a cache-line-padded fixed-capacity ring of
// recent structured events (runner span begin/end with window ids,
// scheduler park/unpark, oocore evict/refault, last-error breadcrumbs,
// watchdog activity) in a SlotRegistry (obs/slots.hpp), so a ring's tid
// is the thread's slot. Recording costs one relaxed load + branch
// when the gate is off and a handful of relaxed stores when on — cheap
// enough to leave armed for a whole run even when full Chrome tracing is
// off, which is the point: the ring is what's left to read after the
// process dies mid-window.
//
// Three consumers:
//   * the safe path: write_blackbox_json() emits a versioned
//     `pmpr-blackbox-v1` JSON snapshot; drain_flight_recorder() consumes
//     the retained events exactly once (mutex-serialized);
//   * the crash path: obs/crash.cpp's signal handler walks the same
//     rings with fr_emit_events_json(fd) — async-signal-safe by
//     construction (atomic loads + write(2) only, no allocation);
//   * the metrics path: flight_recorder_stats() backs the pmpr-metrics-v4
//     "diagnostics" section (records, drops, drains).
//
// Consistency contract (same as counters): rings are advisory while
// writers are live — after a ring wraps, a reader may observe a record
// whose fields mix two writes. Every field is an individually-relaxed
// atomic, so torn *values* cannot occur, and every name pointer refers to
// static storage (string literals or the leaked rings' own buffers),
// so a stale pointer is always dereferenceable. A writer stores a slot's
// sequence stamp after its fields, and readers skip a slot whose stamp is
// not the one its position expects, so a slot claimed but not yet filled
// is never reported as an event; a drain stops at such a slot and leaves
// it to the next drain. Totals and event lists are exact once producers
// quiesce.
//
// All `name` arguments must be string literals or otherwise immortal:
// records store the pointer, never a copy (fr_record_error is the one
// exception — it copies into a per-thread buffer first).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pmpr::obs {

/// Structured event kinds. Keep kFrEventNames in flightrec.cpp in sync.
enum class FrEvent : std::uint8_t {
  kSpanBegin = 0,  ///< Runner phase entered (a = window/batch id).
  kSpanEnd,        ///< Runner phase left (a = window/batch id).
  kWindowDone,     ///< Window handed to the result sink (a = window id).
  kTaskRun,        ///< Pool worker picked up a task.
  kPark,           ///< Pool worker went to sleep on the condvar.
  kUnpark,         ///< notify() signalled a sleeper.
  kEvict,          ///< Paged store dropped a part (a = part, b = bytes).
  kRefault,        ///< Paged store re-mapped an evicted part (a = part).
  kError,          ///< Exception breadcrumb (name = truncated what()).
  kWatchdogArm,    ///< Watchdog started monitoring (a = threshold ns).
  kWatchdogFire,   ///< Watchdog declared a stall (a = heartbeat age ns).
  kMark,           ///< Free-form breadcrumb.
};
inline constexpr std::size_t kNumFrEvents = 12;

/// Stable snake_case name (used as JSON "kind" values).
[[nodiscard]] const char* to_string(FrEvent e);

/// One event copied out of the rings by snapshot/drain (safe path only;
/// the crash path never materializes these).
struct FlightEvent {
  std::int64_t t_ns = 0;   ///< trace_now_ns() timestamp.
  std::uint32_t tid = 0;   ///< Thread slot of the writer (obs/slots.hpp).
  FrEvent kind = FrEvent::kMark;
  std::string name;        ///< Label ("" when the record carried none).
  std::uint64_t a = 0;     ///< Kind-specific payload (window id, bytes...).
  std::uint64_t b = 0;
};

/// Lifetime totals for the metrics "diagnostics" section.
struct FlightRecorderStats {
  std::uint64_t records = 0;  ///< Events ever recorded (incl. overwritten).
  std::uint64_t dropped = 0;  ///< Events overwritten before being read.
  std::uint64_t drains = 0;   ///< Completed drain_flight_recorder() calls.
  std::uint64_t threads = 0;  ///< Rings in use (0 before the first record).
};

namespace detail {
/// Inline so flight_recorder_enabled() compiles to one load per call site.
inline std::atomic<bool> g_flight_recorder_enabled{false};
/// Out-of-line slow path: appends one record to the calling thread's ring.
void fr_add(FrEvent kind, const char* name, std::uint64_t a, std::uint64_t b);
}  // namespace detail

/// Whether fr_record() records anything. The single check on the disabled
/// hot path.
[[nodiscard]] inline bool flight_recorder_enabled() {
  // relaxed: an advisory on/off gate — stale reads only delay when
  // recording starts/stops by a few events; no data is published through
  // this flag.
  return detail::g_flight_recorder_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables the recorder. Returns the previous setting.
bool set_flight_recorder_enabled(bool enabled);

/// Appends one event to the calling thread's ring. Near-zero cost when
/// disabled (one relaxed load). Safe from any thread, including pool
/// workers mid-steal. `name` must be a string literal (or otherwise have
/// static storage duration) — the pointer is stored, not the bytes.
inline void fr_record(FrEvent kind, const char* name = nullptr,
                      std::uint64_t a = 0, std::uint64_t b = 0) {
  if (!flight_recorder_enabled()) return;
  detail::fr_add(kind, name, a, b);
}

/// Records a kError breadcrumb carrying `what` (truncated to the ring
/// block's fixed error buffer — this is the one API that copies bytes, so
/// transient exception text survives). Also remembered as the process-wide
/// last error for crash reports. Gated like fr_record.
void fr_record_error(const char* what);

/// Copies out every retained event, oldest first (per-ring order is exact;
/// cross-thread order is by timestamp). Non-consuming. Advisory while
/// writers are live, exact after they quiesce.
[[nodiscard]] std::vector<FlightEvent> snapshot_flight_recorder();

/// Consumes the retained events: each event is returned by exactly one
/// drain call, even under concurrent drains (serialized on an internal
/// mutex). Events recorded after a drain started may land in either that
/// drain or the next, and so do an event its writer is still filling in
/// and the later events of that thread's ring.
[[nodiscard]] std::vector<FlightEvent> drain_flight_recorder();

/// Drops every retained event and zeroes the lifetime totals. Test-only
/// territory: racy-by-contract against live producers.
void clear_flight_recorder();

/// Lifetime totals. Advisory while producers run.
[[nodiscard]] FlightRecorderStats flight_recorder_stats();

/// Writes the versioned `pmpr-blackbox-v1` JSON (schema, stats, threads,
/// events) without consuming the rings. The thread table lists every
/// claimed thread slot, recorder or not.
void write_blackbox_json(std::ostream& out);

/// Convenience: writes the blackbox to `path`. Returns false when the
/// file cannot be opened.
bool write_blackbox_json(const std::string& path);

/// The process-wide last error recorded via fr_record_error, or "" when
/// none. Safe-path accessor (the crash path reads the same buffer through
/// fr_emit_last_error_json).
[[nodiscard]] std::string last_error();

// --- async-signal-safe emitters (crash path; see obs/crash.cpp) --------

/// Writes the JSON array of retained events to `fd` using only atomic
/// loads and write(2). Returns the number of events emitted.
std::uint64_t fr_emit_events_json(int fd);

/// Writes the JSON array of claimed thread slots ({"tid","label",
/// "records"}) to `fd`. Async-signal-safe.
void fr_emit_threads_json(int fd);

/// Writes the last-error breadcrumb as a JSON string body to `fd` (no
/// surrounding quotes). Async-signal-safe.
void fr_emit_last_error_json(int fd);

}  // namespace pmpr::obs
