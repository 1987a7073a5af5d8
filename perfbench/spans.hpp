// The benchmark's own trace: spans recorded around its calls into the
// library, kept in memory and written out once the round ends.
//
// A span holds a name, start, end, its parent span and the round's run
// id (plus a window index for sink calls). A null SpanLog turns every
// ScopedSpan into a no-op that reads no clock, which is how untraced
// rounds run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< Static-storage literal.
  int id = 0;
  int parent = -1;              ///< -1 for the root span.
  std::int64_t window = -1;     ///< Window index of sink spans, else -1.
  std::int64_t start_ns = 0;    ///< Since the log's origin.
  std::int64_t end_ns = 0;
  int thread = 0;               ///< Small per-process thread index.
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(std::uint64_t run_id) : run_id_(run_id) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void add(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  /// Copy of every finished span, in finishing order.
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Sum of the durations of the spans named `name`, in seconds.
  [[nodiscard]] double total_seconds(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Chrome trace-event JSON (one complete event per span), loadable in
  /// Perfetto. The run id is the pid; id/parent/window go into args.
  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Span& s = all[i];
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": "
          << run_id_ << ", \"tid\": " << s.thread
          << ", \"ts\": " << static_cast<double>(s.start_ns) * 1e-3
          << ", \"dur\": "
          << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"window\": " << s.window << "}}"
          << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  const std::uint64_t run_id_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

inline int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Records [construction, destruction) as one span of `log` (if non-null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent,
             std::int64_t window = -1)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.name = name;
    span_.id = log_->next_id();
    span_.parent = parent;
    span_.window = window;
    span_.thread = thread_index();
    span_.start_ns = log_->now_ns();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = log_->now_ns();
    log_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (-1 when not recording), for children's `parent`.
  [[nodiscard]] int id() const { return log_ == nullptr ? -1 : span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace perfbench
