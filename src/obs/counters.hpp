// Runtime telemetry: library-wide event counters (observability pillar 1).
//
// A fixed enum of counters covers the hot layers whose behavior explains
// the paper's figures: the work-stealing scheduler (tasks, steals,
// park/unpark — Fig. 7's granularity story), the SpMV/SpMM kernels (edges
// traversed, dangling scans, lane convergence — Fig. 8), and partial
// initialization (vertices reused vs re-seeded — Fig. 6).
//
// Design: each thread owns a cache-line-padded block of relaxed atomics in
// a SlotRegistry (obs/slots.hpp). Aggregation (`counters_snapshot`) sums
// every block; totals are advisory while writers are live, exact once the
// producing threads have quiesced (e.g. after ThreadPool::wait returns).
//
// Cost discipline: `count()` is a single relaxed atomic load + branch when
// telemetry is disabled. Hot loops must accumulate locally and flush once
// per chunk — never call count() per edge.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pmpr::obs {

/// Library-wide counter ids. Keep kCounterNames in counters.cpp in sync.
enum class Counter : std::size_t {
  // Scheduler (par::ThreadPool / ws_deque).
  kTasksSpawned = 0,   ///< submit() calls.
  kTasksExecuted,      ///< Tasks run (own pop, injected, or stolen).
  kStealsAttempted,    ///< WsDeque::steal() calls.
  kStealsSucceeded,    ///< steal() calls that returned a task.
  kParks,              ///< Workers that went to sleep on the condvar.
  kUnparks,            ///< notify() slow paths that signalled a sleeper.
  // Kernels (pagerank/).
  kEdgesTraversed,     ///< Adjacency entries visited by PageRank sweeps.
  kDanglingScanned,    ///< Rows/entries visited by dangling-mass scans.
  kLanesConverged,     ///< Windows/lanes that reached tol.
  kIterations,         ///< Power iterations (summed over windows/batches).
  // Initialization (pagerank/partial_init).
  kVerticesReused,     ///< Vertices seeded from the previous window.
  kVerticesReseeded,   ///< Vertices seeded uniformly (full or fresh part).
  // Runners (exec/).
  kWindowsProcessed,   ///< Windows handed to the result sink.
  // Telemetry layer (obs/).
  kHistogramRecords,   ///< Durations recorded into the latency histograms.
  // SIMD dispatch (pagerank/simd_*): which compiled-sweep ISA ran. One
  // count per sweep invocation (i.e. per power iteration of a compiled
  // SpMM batch), so the three split kIterations of compiled batches by
  // instruction set.
  kSimdSweepScalar,    ///< Compiled sweeps run on the scalar kernel.
  kSimdSweepAvx2,      ///< Compiled sweeps run on the AVX2 kernel.
  kSimdSweepAvx512,    ///< Compiled sweeps run on the AVX-512 kernel.
  // Out-of-core paging (graph/paged_multi_window) and compressed-chunk
  // streaming (pagerank/batch_csr over io/compressed_csr).
  kPartsEvicted,       ///< Parts dropped by the paged store's LRU.
  kPartRefaults,       ///< Re-acquires of a previously evicted part.
  kChunksDecoded,      ///< Compressed chunks decoded by compile passes.
  kChunksPruned,       ///< Chunks skipped via their time extent.
  kBytesDecoded,       ///< Encoded bytes expanded by chunk decodes.
  kWindowOutputBytes,  ///< Rank bytes handed to sinks (read-amp denominator).
};
inline constexpr std::size_t kNumCounters = 23;

/// Human-readable snake_case name (stable; used as JSON keys).
[[nodiscard]] std::string_view to_string(Counter c);

/// A point-in-time aggregate of every counter. Plain values — subtract two
/// snapshots to attribute activity to a phase.
struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }

  /// Element-wise difference, clamped at zero (a concurrent reset between
  /// the two snapshots must not produce huge wrapped values).
  [[nodiscard]] CounterSnapshot delta_since(const CounterSnapshot& base) const {
    CounterSnapshot d;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      d.values[i] = values[i] >= base.values[i] ? values[i] - base.values[i]
                                                : 0;
    }
    return d;
  }
};

inline CounterSnapshot operator-(const CounterSnapshot& a,
                                 const CounterSnapshot& b) {
  return a.delta_since(b);
}

namespace detail {
/// Inline so counters_enabled() compiles to one load at every call site.
inline std::atomic<bool> g_counters_enabled{false};
inline std::atomic<bool> g_metrics_enabled{false};
/// Out-of-line slow path: adds to the calling thread's block.
void counter_add(Counter c, std::uint64_t n);
}  // namespace detail

/// Whether count() records anything. The single check on the disabled hot
/// path.
[[nodiscard]] inline bool counters_enabled() {
  // relaxed: an advisory on/off gate — stale reads only delay when counting
  // starts/stops by a few events; no data is published through this flag.
  return detail::g_counters_enabled.load(std::memory_order_relaxed);
}

/// Whether kernels should record per-iteration residual trajectories into
/// PagerankStats (checked once per power iteration, never per edge).
[[nodiscard]] inline bool metrics_enabled() {
  // relaxed: advisory gate, same argument as counters_enabled().
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Enables/disables counters. Returns the previous setting.
bool set_counters_enabled(bool enabled);

/// Enables/disables per-iteration run metrics (residual trajectories).
/// Returns the previous setting.
bool set_metrics_enabled(bool enabled);

/// Adds `n` to counter `c` for the calling thread. Near-zero cost when
/// disabled (one relaxed load). Safe from any thread, including pool
/// workers mid-steal.
inline void count(Counter c, std::uint64_t n = 1) {
  if (!counters_enabled()) return;
  detail::counter_add(c, n);
}

/// Sums every thread block. Advisory while producers run; exact after they
/// quiesce.
[[nodiscard]] CounterSnapshot counters_snapshot();

/// Zeroes every block. Only meaningful while no producer is mid-flight
/// (concurrent adds may survive the reset — totals stay advisory).
void reset_counters();

}  // namespace pmpr::obs
