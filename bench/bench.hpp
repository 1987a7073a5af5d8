// Shared plumbing of the pmpr_bench cases.
//
// Every table, figure and ablation case reproduces one table or figure of
// the paper and prints its rows/series as an aligned text table (plus CSV
// with --csv). Surrogate datasets are scaled for laptop runtimes via
// --scale; window counts are capped like the paper's experiment setups
// (6 / 256 / 1024 windows). The cell functions below are the measurements
// the figure cases print and the `suite` case gates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/offline_runner.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/results.hpp"
#include "exec/streaming_runner.hpp"
#include "gen/surrogates.hpp"
#include "graph/multi_window.hpp"
#include "graph/window.hpp"
#include "obs/counters.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pmpr::bench {

/// Every flag any case reads, at its most common default. A case accepts
/// only the flags its row in pmpr_bench.cpp names, with its own defaults.
struct Args {
  double scale = 0.1;        ///< Multiplier on surrogate event counts.
  std::int64_t seed = 42;
  bool csv = false;          ///< Emit CSV instead of aligned text.
  std::int64_t repeats = 1;  ///< Timing repeats.
  std::string json{};        ///< When non-empty, also write results here.
  std::int64_t max_windows = 192;
  std::int64_t windows = 256;
  std::int64_t events = 400'000;
  std::int64_t buckets = 32;
  std::int64_t veclen = 16;
  std::int64_t multi_windows = 6;
  std::int64_t parts = 8;
  std::int64_t micro_iters = 200;
};

/// name -> {field: number} records written as one JSON object in insertion
/// order, for the --json output of `suite` and `micro` (read by
/// ci/bench_{smoke,regression}.sh and ci/bench_compare.py). Not a general
/// serializer: values are finite doubles and names need no escaping.
class JsonEmitter {
 public:
  void set(const std::string& record, const std::string& field,
           double value) {
    find(record).fields.emplace_back(field, value);
  }

  /// Nests `counters` in the record's "counters" object, so
  /// ci/bench_smoke.sh can tell them from timing fields.
  void set_counters(const std::string& record,
                    const obs::CounterSnapshot& counters) {
    find(record).counters = counters;
  }

  /// Writes the records to `path`; on failure exits 1 with one line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(12);
    out << "{\n";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      const Record& rec = records_[r];
      out << "  \"" << rec.name << "\": {";
      for (std::size_t i = 0; i < rec.fields.size(); ++i) {
        out << (i != 0 ? "," : "") << "\n    \"" << rec.fields[i].first
            << "\": " << rec.fields[i].second;
      }
      if (rec.counters) {
        out << (rec.fields.empty() ? "" : ",") << "\n    \"counters\": {";
        for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
          out << (i != 0 ? "," : "") << "\n      \""
              << obs::to_string(static_cast<obs::Counter>(i))
              << "\": " << rec.counters->values[i];
        }
        out << "\n    }";
      }
      out << "\n  }" << (r + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    if (!out) {
      std::cerr << "pmpr_bench: failed to write " << path << "\n";
      std::exit(1);
    }
  }

 private:
  struct Record {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
    std::optional<obs::CounterSnapshot> counters;
  };

  Record& find(const std::string& name) {
    for (Record& rec : records_) {
      if (rec.name == name) return rec;
    }
    return records_.emplace_back(Record{name, {}, std::nullopt});
  }

  std::vector<Record> records_;
};

inline void print(const Table& table, const Args& args) {
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print_text(std::cout);
  }
  std::cout << std::endl;
}

/// Generates a surrogate scaled by `args.scale` on top of its laptop
/// default size.
inline TemporalEdgeList load_surrogate(const std::string& name,
                                       const Args& args) {
  const gen::DatasetSpec spec =
      gen::scaled(gen::dataset_by_name(name), args.scale);
  return gen::generate(spec, static_cast<std::uint64_t>(args.seed));
}

/// Window spec with exactly `count` windows anchored at the *end* of the
/// data range (the busy region for growth-shaped datasets), like the
/// paper's fixed-window-count studies (Figs. 7-10).
inline WindowSpec last_windows(const TemporalEdgeList& events, Timestamp delta,
                               Timestamp sw, std::size_t count) {
  const Timestamp t_max = events.max_time();
  const Timestamp t_min = events.min_time();
  Timestamp t0 = t_max - delta - static_cast<Timestamp>(count - 1) * sw;
  if (t0 < t_min) t0 = t_min;
  WindowSpec spec;
  spec.t0 = t0;
  spec.delta = delta;
  spec.sw = sw;
  spec.count = count;
  return spec;
}

/// One streaming run (the baseline of most figures); returns total seconds.
inline double time_streaming(const TemporalEdgeList& events,
                             const WindowSpec& spec) {
  ChecksumSink sink(spec.count);
  const RunResult r = run_streaming(events, spec, sink, StreamingOptions{});
  return r.build_seconds + r.compute_seconds;
}

/// One offline run; returns total seconds.
inline double time_offline(const TemporalEdgeList& events,
                           const WindowSpec& spec) {
  ChecksumSink sink(spec.count);
  const RunResult r = run_offline(events, spec, sink, OfflineOptions{});
  return r.build_seconds + r.compute_seconds;
}

/// One postmortem run (building the representation included); returns
/// total seconds.
inline double time_postmortem(const TemporalEdgeList& events,
                              const WindowSpec& spec,
                              const PostmortemConfig& cfg) {
  ChecksumSink sink(spec.count);
  const RunResult r = run_postmortem(events, spec, sink, cfg);
  return r.build_seconds + r.compute_seconds;
}

/// Postmortem on a prebuilt representation (parameter sweeps).
inline RunResult run_prebuilt(const MultiWindowSet& set,
                              const PostmortemConfig& cfg) {
  ChecksumSink sink(set.spec().count);
  return run_postmortem_prebuilt(set, sink, cfg);
}

inline std::string fmt_days(Timestamp seconds) {
  const double days = static_cast<double>(seconds) /
                      static_cast<double>(duration::kDay);
  if (days >= 365.0) {
    return Table::fmt(days / 365.0, 1) + "y";
  }
  return Table::fmt(days, 1) + "d";
}

// --- cells: one measurement of a figure, shared with `suite` -----------

/// One Fig. 5 cell: the three execution models on one window spec.
struct Fig5Cell {
  double offline = 0.0;    ///< Total seconds.
  double streaming = 0.0;  ///< Total seconds.
  RunResult postmortem;    ///< Bare-bones config, representation built.
};
Fig5Cell fig5_cell(const TemporalEdgeList& events, const WindowSpec& spec);

/// One Fig. 6 cell: PR-level SpMV on one prebuilt set, with full and with
/// partial initialization (Eq. 4).
struct Fig6Cell {
  RunResult full;
  RunResult partial;
};
Fig6Cell fig6_cell(const MultiWindowSet& set);

/// One vector-length ablation cell: PR-level SpMM with `veclen` lanes on
/// one prebuilt set.
RunResult veclen_cell(const MultiWindowSet& set, std::size_t veclen);

// --- kernels: min-of-N timings shared by `micro` and `suite` ------------

/// One kernel's timing: the fastest of its timed calls, the work items one
/// call processes (events, or events x lanes for SpMM; 0 = unitless), and
/// the telemetry counter deltas of one call (zero when counters are off).
struct KernelTime {
  double ns = 0.0;
  double items = 0.0;
  obs::CounterSnapshot counters;
};

/// The one kernel timer: `iters` timed calls of `fn` after a tenth as many
/// warm-up calls, of which the fastest counts. Min, not mean or median:
/// noise only ever adds time, so the least-perturbed call is the most
/// reproducible one.
KernelTime time_kernel(std::int64_t iters, double items, auto&& fn) {
  const int timed = static_cast<int>(iters);
  const int warmup = std::max(1, timed / 10);
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const std::vector<double> times = time_repeats(fn, timed, warmup);
  KernelTime t{*std::min_element(times.begin(), times.end()) * 1e9, items,
               obs::counters_snapshot().delta_since(before)};
  for (std::uint64_t& v : t.counters.values) {
    v /= static_cast<std::uint64_t>(timed + warmup);
  }
  return t;
}

/// The kernels' input: `windows` windows of 90 days, one day apart, at the
/// end of `events`, in 2 parts; the kernels read part 0.
struct KernelFixture {
  KernelFixture(const TemporalEdgeList& events, std::size_t windows);
  const TemporalEdgeList& events;
  WindowSpec spec;
  MultiWindowSet set;
};

KernelTime spmv_ref(const KernelFixture& f, std::int64_t iters);
KernelTime spmv_compiled(const KernelFixture& f, std::int64_t iters);
KernelTime spmm16_compiled(const KernelFixture& f, std::int64_t iters);
/// A `lanes`-wide compiled SpMM sweep on its own `lanes` windows, so the
/// batch is full at every width.
KernelTime spmm_wide(const TemporalEdgeList& events, std::size_t lanes,
                     std::int64_t iters);

// --- cases ---------------------------------------------------------------

void table1(const Args& args);
void fig4(const Args& args);
void fig5(const Args& args);
void fig6(const Args& args);
/// Figs. 7, 9 and 10: the partitioner x granularity sweep on wiki-talk,
/// differing only in window geometry.
void granularity(const char* figure, Timestamp delta, Timestamp sw,
                 std::size_t windows, const Args& args);
void fig8(const Args& args);
void fig11(const Args& args);
void fig12(const Args& args);
void veclen(const Args& args);
void spmm_order(const Args& args);
void timescan(const Args& args);
void streaming(const Args& args);
void partition_policy(const Args& args);
void suite(const Args& args);
void micro(const Args& args);

}  // namespace pmpr::bench
