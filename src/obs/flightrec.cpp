#include "obs/flightrec.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <ostream>

#include "obs/sigsafe.hpp"
#include "obs/slots.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::obs {

namespace {

constexpr std::array<const char*, kNumFrEvents> kFrEventNames = {
    "span_begin", "span_end",     "window_done",   "task_run",
    "park",       "unpark",       "evict",         "refault",
    "error",      "watchdog_arm", "watchdog_fire", "mark",
};

/// Per-ring capacity. 128 recent events per thread is enough to cover the
/// last few windows of work (each window records ~8 phase edges) while
/// keeping the whole leaked registry around 1.4 MB. The rings are
/// allocated by the first recorded event; naming a thread does not touch
/// them.
constexpr std::size_t kRingCap = 128;
constexpr std::size_t kErrorLen = 128;

/// One ring record. Every field is an individually-relaxed atomic: after
/// the ring wraps a reader may combine fields from two different writes
/// (advisory-by-contract, like counters), but it can never see a torn
/// value — in particular `name` is always either nullptr or a valid
/// pointer to static-storage bytes, which is what makes the crash path's
/// pointer-chasing safe. `stamp` is the low 32 bits of seq + 1 of the
/// write that filled the slot, stored last with release order: a slot
/// that fr_add() has claimed but not yet filled still carries an older
/// stamp (0 when cleared, else one from kRingCap writes back), and readers
/// skip it rather than report its stale or zeroed fields as an event. 32
/// bits fit in the padding after `kind`, so the slot does not grow.
struct FrSlot {
  std::atomic<std::int64_t> t_ns{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::uint32_t> stamp{0};
};

/// One padded per-thread ring. `error_buf` is plain chars written by the
/// owning thread; cross-thread reads (snapshot, crash handler) are
/// racy-by-contract and see possibly-stale but always NUL-terminated text.
struct alignas(64) FrBlock {
  std::array<FrSlot, kRingCap> ring{};
  std::atomic<std::uint64_t> next{0};      ///< Events ever written here.
  std::atomic<std::uint64_t> consumed{0};  ///< Drained seq (under drain mu).
  char error_buf[kErrorLen] = {};
};

constinit SlotRegistry<FrBlock, kThreadSlots> g_rings;
std::atomic<std::uint64_t> g_drains{0};

/// Serializes drain/clear (the drain-exactly-once contract) and the
/// global last-error copy.
Mutex g_drain_mu;

/// Process-wide last-error text for crash reports. Written under the
/// drain mutex on the safe path; the crash handler reads it raw (torn
/// text on a pathological race is acceptable in a best-effort dump).
char g_last_error[kErrorLen + kThreadLabelLen] = {};

std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// Whether the slot holds write `seq`, complete. acquire: pairs with
/// fr_add()'s release store of the stamp, so the fields read after it are
/// that write's (or, after a wrap, a later one's).
bool slot_written(const FrSlot& s, std::uint64_t seq) {
  return s.stamp.load(std::memory_order_acquire) ==
         static_cast<std::uint32_t>(seq + 1);
}

/// Copies the written records of the window [start, next) of one ring
/// into `out` and returns the seq the copy stopped at. A slot that does
/// not hold its own write (claimed but not yet filled, or already
/// overwritten) is skipped, or, with `stop_at_gap`, ends the copy, so a
/// drain can leave it for the next drain.
std::uint64_t copy_ring(const FrBlock& blk, std::uint32_t tid,
                        std::uint64_t start, std::uint64_t next,
                        bool stop_at_gap, std::vector<FlightEvent>& out) {
  for (std::uint64_t seq = start; seq < next; ++seq) {
    const FrSlot& s = blk.ring[seq % kRingCap];
    if (!slot_written(s, seq)) {
      if (stop_at_gap) return seq;
      continue;
    }
    FlightEvent e;
    // relaxed loads: ring snapshots are advisory-by-contract while
    // writers are live (see flightrec.hpp); exact after quiesce.
    e.t_ns = s.t_ns.load(std::memory_order_relaxed);
    e.tid = tid;
    const std::uint8_t k = s.kind.load(std::memory_order_relaxed);
    e.kind = static_cast<FrEvent>(
        std::min<std::uint8_t>(k, kNumFrEvents - 1));
    const char* nm = s.name.load(std::memory_order_relaxed);  // relaxed: ditto
    if (nm != nullptr) e.name = nm;
    e.a = s.a.load(std::memory_order_relaxed);  // relaxed: ditto
    e.b = s.b.load(std::memory_order_relaxed);  // relaxed: ditto
    out.push_back(std::move(e));
  }
  return next;
}

void sort_by_time(std::vector<FlightEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns != y.t_ns ? x.t_ns < y.t_ns
                                             : x.tid < y.tid;
                   });
}

}  // namespace

const char* to_string(FrEvent e) {
  return kFrEventNames[static_cast<std::size_t>(e)];
}

namespace detail {

void fr_add(FrEvent kind, const char* name, std::uint64_t a,
            std::uint64_t b) {
  FrBlock& blk = g_rings.mine();
  // seq_cst fetch_add claims the slot; only the shared overflow block
  // ever contends on it (owned rings have a single writer), and the
  // recording rate is per-phase, not per-edge — cold enough for the
  // strongest order.
  const std::uint64_t seq = blk.next.fetch_add(1);
  FrSlot& s = blk.ring[seq % kRingCap];
  // relaxed stores: each field is individually atomic, readers tolerate
  // mixed-write records after a wrap (advisory-by-contract, see header),
  // and `name` only ever points to static storage.
  s.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  s.name.store(name, std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);  // relaxed: ditto
  s.t_ns.store(trace_now_ns(), std::memory_order_relaxed);  // relaxed: ditto
  // release: publishes the fields above to a reader whose acquire load
  // sees this stamp (slot_written).
  s.stamp.store(static_cast<std::uint32_t>(seq + 1),
                std::memory_order_release);
}

}  // namespace detail

bool set_flight_recorder_enabled(bool enabled) {
  // seq_cst exchange: cold toggle, strongest order keeps reasoning trivial.
  return detail::g_flight_recorder_enabled.exchange(enabled);
}

void fr_record_error(const char* what) {
  if (!flight_recorder_enabled()) return;
  if (what == nullptr) what = "(unknown error)";
  FrBlock& blk = g_rings.mine();
  std::size_t n = 0;
  for (; n + 1 < kErrorLen && what[n] != '\0'; ++n) blk.error_buf[n] = what[n];
  blk.error_buf[n] = '\0';
  {
    // The global last-error copy is shared across threads; the drain
    // mutex serializes safe-path writers (the crash handler reads raw).
    LockGuard lock(g_drain_mu);
    std::size_t m = 0;
    for (; m + 1 < sizeof(g_last_error) && what[m] != '\0'; ++m) {
      g_last_error[m] = what[m];
    }
    g_last_error[m] = '\0';
  }
  fr_record(FrEvent::kError, blk.error_buf);
}

std::vector<FlightEvent> snapshot_flight_recorder() {
  std::vector<FlightEvent> out;
  g_rings.for_each([&](const FrBlock& blk, std::size_t i) {
    // relaxed: advisory snapshot, see copy_ring.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    copy_ring(blk, static_cast<std::uint32_t>(i), sat_sub(next, kRingCap),
              next, /*stop_at_gap=*/false, out);
  });
  sort_by_time(out);
  return out;
}

std::vector<FlightEvent> drain_flight_recorder() {
  std::vector<FlightEvent> out;
  if (g_rings.find() == nullptr) return out;
  // The drain mutex is what makes "each event drained exactly once" hold
  // under concurrent drains: `consumed` is only advanced here.
  LockGuard lock(g_drain_mu);
  g_rings.for_each([&](FrBlock& blk, std::size_t i) {
    // relaxed: advisory while writers are live; events recorded after
    // this load land in the next drain.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    // relaxed: consumed is only mutated under g_drain_mu (held here).
    const std::uint64_t consumed =
        blk.consumed.load(std::memory_order_relaxed);
    const std::uint64_t start = std::max(consumed, sat_sub(next, kRingCap));
    // A record claimed but not yet filled ends this drain's share of the
    // ring: it and the records after it go to the next drain, or, if the
    // ring wraps first, into the dropped count.
    const std::uint64_t stop = copy_ring(blk, static_cast<std::uint32_t>(i),
                                         start, next, /*stop_at_gap=*/true,
                                         out);
    // relaxed: published to other drainers via g_drain_mu, not this store.
    blk.consumed.store(stop, std::memory_order_relaxed);
  });
  // seq_cst add of a cold stat.
  g_drains.fetch_add(1);
  sort_by_time(out);
  return out;
}

void clear_flight_recorder() {
  LockGuard lock(g_drain_mu);
  g_rings.for_each([](FrBlock& blk, std::size_t) {
    for (FrSlot& s : blk.ring) {
      // relaxed: clear is racy-by-contract against live producers (like
      // reset_counters); totals stay advisory.
      s.t_ns.store(0, std::memory_order_relaxed);
      s.name.store(nullptr, std::memory_order_relaxed);
      s.a.store(0, std::memory_order_relaxed);
      s.b.store(0, std::memory_order_relaxed);     // relaxed: ditto
      s.kind.store(0, std::memory_order_relaxed);  // relaxed: ditto
      s.stamp.store(0, std::memory_order_relaxed);  // relaxed: ditto
    }
    // relaxed: same racy-by-contract reset.
    blk.next.store(0, std::memory_order_relaxed);
    blk.consumed.store(0, std::memory_order_relaxed);
  });
  // seq_cst store of a cold stat.
  g_drains.store(0);
  g_last_error[0] = '\0';
}

FlightRecorderStats flight_recorder_stats() {
  FlightRecorderStats stats;
  // seq_cst load of a cold stat.
  stats.drains = g_drains.load();
  stats.threads = g_rings.for_each([&](const FrBlock& blk, std::size_t) {
    // relaxed: advisory totals, see counters_snapshot for the argument.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    const std::uint64_t consumed =
        blk.consumed.load(std::memory_order_relaxed);
    stats.records += next;
    stats.dropped += sat_sub(sat_sub(next, kRingCap), consumed);
  });
  return stats;
}

std::string last_error() {
  LockGuard lock(g_drain_mu);
  return std::string(g_last_error);
}

void write_blackbox_json(std::ostream& out) {
  const FlightRecorderStats stats = flight_recorder_stats();
  const std::vector<FlightEvent> events = snapshot_flight_recorder();
  out << "{\n";
  out << "  \"schema\": \"pmpr-blackbox-v1\",\n";
  out << "  \"ring_capacity\": " << kRingCap << ",\n";
  out << "  \"stats\": {\"records\": " << stats.records
      << ", \"dropped\": " << stats.dropped
      << ", \"drains\": " << stats.drains
      << ", \"threads\": " << stats.threads << "},\n";
  out << "  \"last_error\": \"" << detail::escape_json(last_error())
      << "\",\n";
  out << "  \"threads\": [\n";
  const FrBlock* rings = g_rings.find();
  const std::size_t nthreads = claimed_thread_slots();
  for (std::size_t i = 0; i < nthreads; ++i) {
    // relaxed: advisory gauge.
    const std::uint64_t records =
        rings != nullptr ? rings[i].next.load(std::memory_order_relaxed) : 0;
    out << "    {\"tid\": " << i << ", \"label\": \""
        << detail::escape_json(thread_label(i))
        << "\", \"records\": " << records << "}"
        << (i + 1 < nthreads ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    out << "    {\"t_ns\": " << e.t_ns << ", \"tid\": " << e.tid
        << ", \"kind\": \"" << to_string(e.kind) << "\", \"name\": \""
        << detail::escape_json(e.name) << "\", \"a\": " << e.a
        << ", \"b\": " << e.b << "}" << (i + 1 < events.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

bool write_blackbox_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_blackbox_json(out);
  return static_cast<bool>(out);
}

// --- async-signal-safe emitters ----------------------------------------
//
// Called from obs/crash.cpp's signal handler. Only atomic loads on the
// published rings and the static label table, plus the sigsafe.hpp
// write(2) helpers — the lint rule `signal-unsafe-in-handler` patrols
// these regions.

// PMPR_ASYNC_SIGNAL_SAFE_BEGIN

std::uint64_t fr_emit_events_json(int fd) {
  sigsafe_puts(fd, "[");
  std::uint64_t emitted = 0;
  g_rings.for_each([&](const FrBlock& blk, std::size_t i) {
    // relaxed: advisory ring window, as on the safe path.
    const std::uint64_t next = blk.next.load(std::memory_order_relaxed);
    const std::uint64_t count = next > kRingCap ? kRingCap : next;
    for (std::uint64_t seq = next - count; seq < next; ++seq) {
      const FrSlot& s = blk.ring[seq % kRingCap];
      if (!slot_written(s, seq)) continue;
      // relaxed loads: advisory records, never torn per-field.
      const std::int64_t t = s.t_ns.load(std::memory_order_relaxed);
      std::uint8_t k = s.kind.load(std::memory_order_relaxed);
      if (k >= kNumFrEvents) k = kNumFrEvents - 1;
      const char* nm = s.name.load(std::memory_order_relaxed);  // ditto
      const std::uint64_t a = s.a.load(std::memory_order_relaxed);  // ditto
      const std::uint64_t b = s.b.load(std::memory_order_relaxed);  // ditto
      if (emitted != 0) sigsafe_puts(fd, ",");
      sigsafe_puts(fd, "\n    {\"t_ns\": ");
      sigsafe_put_i64(fd, t);
      sigsafe_puts(fd, ", \"tid\": ");
      sigsafe_put_u64(fd, i);
      sigsafe_puts(fd, ", \"kind\": \"");
      sigsafe_puts(fd, kFrEventNames[k]);
      sigsafe_puts(fd, "\", \"name\": \"");
      sigsafe_put_json_str(fd, nm != nullptr ? nm : "");
      sigsafe_puts(fd, "\", \"a\": ");
      sigsafe_put_u64(fd, a);
      sigsafe_puts(fd, ", \"b\": ");
      sigsafe_put_u64(fd, b);
      sigsafe_puts(fd, "}");
      ++emitted;
    }
  });
  sigsafe_puts(fd, emitted != 0 ? "\n  ]" : "]");
  return emitted;
}

void fr_emit_threads_json(int fd) {
  sigsafe_puts(fd, "[");
  const FrBlock* rings = g_rings.find();
  const std::size_t n = claimed_thread_slots();
  for (std::size_t i = 0; i < n; ++i) {
    char label[kThreadLabelLen];
    copy_thread_label(i, label);
    if (i != 0) sigsafe_puts(fd, ",");
    sigsafe_puts(fd, "\n    {\"tid\": ");
    sigsafe_put_u64(fd, i);
    sigsafe_puts(fd, ", \"label\": \"");
    sigsafe_put_json_str(fd, label);
    sigsafe_puts(fd, "\", \"records\": ");
    // relaxed: advisory gauge.
    sigsafe_put_u64(
        fd, rings != nullptr ? rings[i].next.load(std::memory_order_relaxed)
                             : 0);
    sigsafe_puts(fd, "}");
  }
  if (n != 0) sigsafe_puts(fd, "\n  ");
  sigsafe_puts(fd, "]");
}

void fr_emit_last_error_json(int fd) { sigsafe_put_json_str(fd, g_last_error); }

// PMPR_ASYNC_SIGNAL_SAFE_END

}  // namespace pmpr::obs
