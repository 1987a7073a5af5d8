#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>

#include "util/thread_annotations.hpp"

namespace pmpr::obs {

namespace {

/// A raw span record: the name pointer (a literal) is stored as-is.
struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Per-thread span buffer. The owning thread appends; collectors copy.
/// Both sides take `mu` — uncontended in steady state (collection happens
/// between runs), so the append cost is a plain lock/unlock.
struct ThreadBuf {
  explicit ThreadBuf(std::uint32_t id) : tid(id) {}
  const std::uint32_t tid;  ///< The owning thread's slot.
  Mutex mu;
  std::vector<Record> records PMPR_GUARDED_BY(mu);
};

struct Registry {
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  Mutex mu;
  /// Owning list; buffers are never removed, so thread_local pointers into
  /// it stay valid for the thread's lifetime.
  std::vector<std::unique_ptr<ThreadBuf>> bufs PMPR_GUARDED_BY(mu);
};

Registry& registry() {
  // Intentionally leaked singleton: pool worker threads may still close
  // spans while function-local statics are destroyed at exit, so the
  // registry (and its epoch) must outlive every thread.
  static Registry* r = new Registry;
  return *r;
}

thread_local ThreadBuf* tls_buf = nullptr;

/// Returns the calling thread's buffer, registering it on first use.
ThreadBuf& my_buf() {
  ThreadBuf* buf = tls_buf;
  if (buf == nullptr) {
    Registry& r = registry();
    LockGuard lock(r.mu);
    r.bufs.push_back(std::make_unique<ThreadBuf>(
        static_cast<std::uint32_t>(thread_slot())));
    buf = r.bufs.back().get();
    tls_buf = buf;
  }
  return *buf;
}

}  // namespace

namespace detail {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

void record_span(const char* name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  ThreadBuf& buf = my_buf();
  LockGuard lock(buf.mu);
  buf.records.push_back(Record{name, start_ns, end_ns});
}

}  // namespace detail

bool set_tracing_enabled(bool enabled) {
  if (enabled) {
    registry();  // Pin the epoch before the first span can start.
  }
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_tracing_enabled.exchange(enabled);
}

void clear_trace() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    buf->records.clear();
  }
}

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - registry().epoch)
      .count();
}

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> events;
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    for (const Record& rec : buf->records) {
      events.push_back(
          TraceEvent{rec.name, buf->tid, rec.start_ns, rec.end_ns});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.tid < b.tid;
            });
  return events;
}

std::size_t trace_event_count() {
  std::size_t n = 0;
  Registry& r = registry();
  LockGuard lock(r.mu);
  for (auto& buf : r.bufs) {
    LockGuard buf_lock(buf->mu);
    n += buf->records.size();
  }
  return n;
}

namespace {

/// Microseconds with three decimals — nanosecond resolution in the µs
/// units Chrome trace mandates.
std::string micros(std::int64_t ns) {
  std::ostringstream num;
  num.setf(std::ios::fixed);
  num.precision(3);
  num << static_cast<double>(ns) * 1e-3;
  return num.str();
}

}  // namespace

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect_trace();
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  const auto sep = [&]() -> const char* {
    const char* s = first ? "\n" : ",\n";
    first = false;
    return s;
  };
  // Perfetto track labels ("ph":"M" metadata). Only emitted alongside real
  // events — an empty trace stays a bare valid skeleton.
  if (!events.empty()) {
    out << sep()
        << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"args\": {\"name\": \"pmpr\"}}";
    for (std::size_t tid = 0; tid < claimed_thread_slots(); ++tid) {
      const std::string name = thread_label(tid);
      if (name.empty()) continue;
      out << sep()
          << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
             "\"tid\": "
          << tid << ", \"args\": {\"name\": \""
          << detail::escape_json(name) << "\"}}";
    }
  }
  for (const TraceEvent& e : events) {
    // Chrome trace "complete" event: ts/dur in microseconds.
    out << sep() << "    {\"name\": \"" << detail::escape_json(e.name)
        << "\", \"cat\": \"pmpr\", \"ph\": \"X\", \"pid\": 0, \"tid\": "
        << e.tid << ", \"ts\": " << micros(e.start_ns)
        << ", \"dur\": " << micros(e.end_ns - e.start_ns) << "}";
  }
  out << "\n  ]\n}\n";
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

}  // namespace pmpr::obs
