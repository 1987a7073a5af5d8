// One measured round of one benchmark workload: a single batch job from a
// temporal event file to every window's PageRank in a checking sink.
//
//   perfbench_round --workload postmortem-4t --input in.txt --spill-dir d
//                   [--setup-only] [--trace] [--trace-out spans.json]
//                   [--run-id 3]
//
// Set-up (parse, sort, config, representation build) and the run are timed
// separately; the output check runs after both. --setup-only stops after
// set-up and reports only its time. With --trace the round turns on the
// library's counter and histogram gates, records its own spans around
// every library call, times two kernel probes afterwards and reports the
// per-layer metrics. Prints one JSON line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check.hpp"
#include "exec/config.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
#include "graph/multi_window.hpp"
#include "graph/paged_multi_window.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "par/thread_pool.hpp"
#include "spans.hpp"
#include "util/options.hpp"

namespace {

using pmpr::obs::Counter;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

enum class Kind { kPostmortem, kOutOfCore, kStreaming };

struct Workload {
  std::string_view name;
  Kind kind;
  /// PMPR_THREADS: pool workers. The calling thread helps while it waits,
  /// so 3 workers use the 4 cores without a fifth runnable thread.
  const char* pool_workers;
  pmpr::Timestamp sw;  ///< Sliding offset; every workload uses δ = 90 d.
};

constexpr pmpr::Timestamp kDay = pmpr::duration::kDay;
constexpr pmpr::Timestamp kDelta = 90 * kDay;
constexpr std::size_t kSampledWindows = 16;
constexpr double kMiB = 1024.0 * 1024.0;

constexpr Workload kWorkloads[] = {
    {"postmortem-4t", Kind::kPostmortem, "3", 1 * kDay},
    {"oocore-1t", Kind::kOutOfCore, "1", 1 * kDay},
    {"streaming-1t", Kind::kStreaming, "1", 4 * kDay},
};

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes cpu_times() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peak_rss_mb() {
  return static_cast<double>(pmpr::obs::peak_rss_bytes()) / kMiB;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Minimal JSON object writer for the one output line.
class JsonLine {
 public:
  void num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    field(key, buf);
  }
  void str(std::string_view key, std::string_view v) {
    field(key, "\"" + std::string(v) + "\"");
  }
  void raw(std::string_view key, const std::string& json) { field(key, json); }
  /// {"value": v, "unit": u}, the metric format run.py prints.
  void metric(std::string_view key, double v, std::string_view unit) {
    JsonLine m;
    m.num("value", v);
    m.str("unit", unit);
    field(key, m.close());
  }
  std::string close() { return "{" + body_ + "}"; }

 private:
  void field(std::string_view key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + value;
  }
  std::string body_;
};

/// The workload's representation, whichever kind it is.
struct Representation {
  std::optional<pmpr::MultiWindowSet> set;             // postmortem-4t
  std::unique_ptr<pmpr::PagedMultiWindowSet> paged;    // oocore-1t
};

/// Probe 1: per part, compile one 16-lane strided batch, then time
/// single-iteration SpMM sweeps on it. Both run serially.
struct KernelProbe {
  double compile_ns = 0.0;
  double compile_events = 0.0;
  double sweep_ns = 0.0;
  double sweep_edges = 0.0;
};

void probe_part(const pmpr::MultiWindowGraph& part,
                const pmpr::WindowSpec& spec, const pmpr::PagerankParams& pr,
                SpanLog& log, int parent, KernelProbe& out) {
  const std::size_t lanes = std::min<std::size_t>(16, part.num_windows);
  const pmpr::SpmmBatch batch{lanes, part.first_window,
                              (part.num_windows + lanes - 1) / lanes};
  pmpr::SpmmWindowState state;
  pmpr::CompiledBatchCsr compiled;
  {
    ScopedSpan s(&log, "probe.compile_spmm_batch", parent);
    const std::int64_t t0 = log.now_ns();
    pmpr::compile_spmm_batch(part, spec, batch, state, compiled);
    out.compile_ns += static_cast<double>(log.now_ns() - t0);
  }
  out.compile_events += static_cast<double>(part.num_events);

  const std::size_t n = part.num_local();
  std::vector<double> x(n * lanes, 0.0);
  std::vector<double> scratch(n * lanes, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < lanes; ++k) {
      if ((state.mask_of(v)[k / 64] >> (k % 64)) & 1U) {
        x[v * lanes + k] = 1.0 / static_cast<double>(state.num_active[k]);
      }
    }
  }
  pmpr::PagerankParams one = pr;
  one.max_iters = 1;
  constexpr int kSweeps = 5;
  for (int rep = 0; rep < kSweeps; ++rep) {
    ScopedSpan s(&log, "probe.pagerank_spmm", parent);
    const std::uint64_t e0 =
        pmpr::obs::counters_snapshot()[Counter::kEdgesTraversed];
    const std::int64_t t0 = log.now_ns();
    (void)pmpr::pagerank_spmm(state, compiled, x, scratch, one);
    out.sweep_ns += static_cast<double>(log.now_ns() - t0);
    out.sweep_edges += static_cast<double>(
        pmpr::obs::counters_snapshot()[Counter::kEdgesTraversed] - e0);
  }
}

/// Probe 2 (out-of-core only): decode every leased part whole.
double probe_decode_ns_per_entry(pmpr::PagedMultiWindowSet& paged,
                                 SpanLog& log, int parent) {
  pmpr::io::DecodeScratch scratch;
  double ns = 0.0;
  double entries = 0.0;
  for (std::size_t p = 0; p < paged.num_parts(); ++p) {
    const pmpr::PagedMultiWindowSet::Lease lease = paged.acquire(p);
    const pmpr::io::CompressedTemporalCsr& csr = *lease.part().in_compressed;
    ScopedSpan s(&log, "probe.decode_all", parent);
    const std::int64_t t0 = log.now_ns();
    csr.decode_all(scratch);
    ns += static_cast<double>(log.now_ns() - t0);
    entries += static_cast<double>(csr.num_entries());
  }
  return ratio(ns, entries);
}

/// Set-up, run, check and (traced) probes; returns the JSON line. With
/// `setup_only` it returns after set-up with the set-up time alone.
std::string run_round(const Workload& wl, const std::string& input,
                      const std::string& spill_dir, bool setup_only,
                      SpanLog* log) {
  ScopedSpan round_span(log, "round", -1);
  const int root = round_span.id();

  // ---- set-up: until the first window can compute --------------------
  const SpanLog::Clock::time_point t_setup = SpanLog::Clock::now();
  double parse_s = 0.0;
  double sort_s = 0.0;
  double build_s = 0.0;
  auto since = [](SpanLog::Clock::time_point t) {
    return std::chrono::duration<double>(SpanLog::Clock::now() - t).count();
  };
  pmpr::TemporalEdgeList events;
  {
    ScopedSpan s(log, "graph.load_text", root);
    const auto t = SpanLog::Clock::now();
    events = pmpr::TemporalEdgeList::load_text(input);
    parse_s = since(t);
  }
  {
    ScopedSpan s(log, "graph.sort_by_time", root);
    const auto t = SpanLog::Clock::now();
    events.sort_by_time();
    sort_s = since(t);
  }
  const pmpr::WindowSpec spec = pmpr::WindowSpec::cover(
      events.min_time(), events.max_time(), kDelta, wl.sw);
  pmpr::PostmortemConfig config;
  Representation rep;
  if (wl.kind != Kind::kStreaming) {
    {
      ScopedSpan s(log, "exec.suggest_config_for", root);
      config = pmpr::suggest_config_for(events, spec);
    }
    ScopedSpan s(log, "graph.build", root);
    const auto t = SpanLog::Clock::now();
    if (wl.kind == Kind::kPostmortem) {
      rep.set.emplace(pmpr::MultiWindowSet::build(
          events, spec, config.num_multi_windows, config.partition_policy));
    } else {
      config.storage = pmpr::StorageKind::kOutOfCore;
      config.memory_budget_bytes = 0;  // one part resident at a time
      pmpr::PagedMultiWindowSet::Options popts;
      popts.num_parts = config.num_multi_windows;
      popts.policy = config.partition_policy;
      popts.budget_bytes = config.memory_budget_bytes;
      popts.spill_path =
          spill_dir + "/store-" + std::to_string(getpid()) + ".pmprcc";
      rep.paged = pmpr::PagedMultiWindowSet::build(events, spec, popts);
    }
    build_s = since(t);
  }
  const double setup_s = since(t_setup);
  if (setup_only) {
    JsonLine out;
    out.str("workload", wl.name);
    out.num("setup_s", setup_s);
    return out.close();
  }
  const double setup_rss_mb = peak_rss_mb();

  // ---- run: until the last window reaches the sink --------------------
  std::optional<ScopedSpan> run_span(std::in_place, log, "exec.run", root);
  perfbench::CheckingSink sink(spec, events.num_vertices(), kSampledWindows,
                               log, run_span->id());
  const pmpr::StreamingOptions sopts;
  const pmpr::PagerankParams& pr =
      wl.kind == Kind::kStreaming ? sopts.pr : config.pr;
  const CpuTimes cpu0 = cpu_times();
  const auto t_run = SpanLog::Clock::now();
  const std::int64_t run_start_ns = log != nullptr ? log->now_ns() : 0;
  pmpr::RunResult result;
  switch (wl.kind) {
    case Kind::kPostmortem:
      result = pmpr::run_postmortem_prebuilt(*rep.set, sink, config);
      break;
    case Kind::kOutOfCore:
      result = pmpr::run_postmortem_paged(*rep.paged, sink, config);
      break;
    case Kind::kStreaming:
      result = pmpr::run_streaming(events, spec, sink, sopts);
      break;
  }
  const double run_s = since(t_run);
  run_span.reset();
  const CpuTimes cpu1 = cpu_times();
  const double run_rss_mb = peak_rss_mb();

  // ---- output check (untimed) -----------------------------------------
  perfbench::CheckReport check;
  {
    ScopedSpan s(log, "check.finish", root);
    check = sink.finish(events, pr);
  }

  JsonLine out;
  out.str("workload", wl.name);
  out.num("events", static_cast<double>(events.size()));
  out.num("vertices", static_cast<double>(events.num_vertices()));
  out.num("windows", static_cast<double>(spec.count));
  out.num("pool_threads",
          static_cast<double>(pmpr::par::ThreadPool::global().num_threads()));
  if (wl.kind != Kind::kStreaming) {
    JsonLine c;
    c.str("mode", pmpr::to_string(config.mode));
    c.str("kernel", pmpr::to_string(config.kernel));
    c.num("lanes", static_cast<double>(config.vector_length));
    c.num("parts", static_cast<double>(config.num_multi_windows));
    c.str("storage", pmpr::to_string(config.storage));
    out.raw("config", c.close());
  }
  out.num("setup_s", setup_s);
  out.num("run_s", run_s);
  out.num("peak_rss_mb", run_rss_mb);
  out.num("iterations", static_cast<double>(result.total_iterations));
  out.num("run_cpu_s", (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys));
  {
    JsonLine c;
    c.num("failed", static_cast<double>(check.failed));
    c.num("fail_frac", check.fail_frac());
    c.num("missing", static_cast<double>(check.missing));
    c.num("duplicated", static_cast<double>(check.duplicated));
    c.num("stray", static_cast<double>(check.stray));
    c.num("bad_values", static_cast<double>(check.bad_values));
    c.num("bad_mass", static_cast<double>(check.bad_mass));
    c.num("oracle_checked", static_cast<double>(check.oracle_checked));
    c.num("oracle_mismatch", static_cast<double>(check.oracle_mismatch));
    c.num("max_mass_error", check.max_mass_error);
    c.num("max_oracle_l1", check.max_oracle_l1);
    c.num("oracle_l1_bound", check.oracle_l1_bound);
    out.raw("check", c.close());
  }

  if (log != nullptr) {
    // ---- probes on the workload's own representation ------------------
    KernelProbe kp;
    double decode_ns_per_entry = 0.0;
    {
      ScopedSpan probe(log, "probe", root);
      if (rep.set) {
        for (std::size_t p = 0; p < rep.set->num_parts(); ++p) {
          probe_part(rep.set->part(p), spec, pr, *log, probe.id(), kp);
        }
      } else if (rep.paged) {
        for (std::size_t p = 0; p < rep.paged->num_parts(); ++p) {
          const pmpr::PagedMultiWindowSet::Lease lease = rep.paged->acquire(p);
          probe_part(lease.part(), spec, pr, *log, probe.id(), kp);
        }
        decode_ns_per_entry =
            probe_decode_ns_per_entry(*rep.paged, *log, probe.id());
      }
    }

    const pmpr::obs::CounterSnapshot& c = result.counters;
    auto count = [&](Counter id) { return static_cast<double>(c[id]); };
    const bool postmortem = wl.kind != Kind::kStreaming;
    const double n_events = static_cast<double>(events.size());
    double part_events = 0.0;
    if (rep.set) {
      part_events = static_cast<double>(rep.set->total_events());
    } else if (rep.paged) {
      for (std::size_t p = 0; p < rep.paged->num_parts(); ++p) {
        part_events += static_cast<double>(rep.paged->part_meta(p).num_events);
      }
    }
    // Phase sums over-count under nested helping (a helping thread's own
    // phase timer keeps running), so they are read on one thread only.
    const bool one_thread = wl.kind == Kind::kOutOfCore;
    auto phase_s = [&](pmpr::obs::Phase p) {
      return one_thread ? static_cast<double>(result.histograms[p].sum_ns) * 1e-9
                        : 0.0;
    };

    // Sink deliveries: first and 95 % marks, from the sink spans' ends.
    std::vector<std::int64_t> ends;
    for (const perfbench::Span& s : log->spans()) {
      if (s.window >= 0) ends.push_back(s.end_ns - run_start_ns);
    }
    std::sort(ends.begin(), ends.end());
    double first_window_s = 0.0;
    double tail_s = 0.0;
    if (!ends.empty()) {
      first_window_s = static_cast<double>(ends.front()) * 1e-9;
      const std::size_t i95 = static_cast<std::size_t>(
          std::ceil(0.95 * static_cast<double>(ends.size()))) - 1;
      tail_s = static_cast<double>(ends.back() - ends[i95]) * 1e-9;
    }
    const double cpu_s = (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys);

    JsonLine m;
    m.metric("graph.parse_s", parse_s, "s");
    m.metric("graph.parse_ns_per_event", ratio(parse_s * 1e9, n_events), "ns");
    m.metric("graph.sort_s", sort_s, "s");
    m.metric("graph.build_s", build_s, "s");
    m.metric("graph.rep_mb",
             static_cast<double>(result.representation_bytes) / kMiB, "MiB");
    m.metric("graph.dup_factor", ratio(part_events, n_events), "ratio");
    m.metric("io.store_mb",
             static_cast<double>(result.oocore_store_bytes) / kMiB, "MiB");
    m.metric("io.compress_ratio",
             ratio(static_cast<double>(result.oocore_raw_bytes),
                   static_cast<double>(result.oocore_store_bytes)),
             "ratio");
    m.metric("io.decoded_mb", count(Counter::kBytesDecoded) / kMiB, "MiB");
    m.metric("io.read_amp", result.read_amplification, "ratio");
    m.metric("io.chunk_prune_frac",
             ratio(count(Counter::kChunksPruned),
                   count(Counter::kChunksPruned) +
                       count(Counter::kChunksDecoded)),
             "ratio");
    m.metric("io.evictions", count(Counter::kPartsEvicted), "count");
    m.metric("io.refaults", count(Counter::kPartRefaults), "count");
    m.metric("io.resident_peak_mb",
             static_cast<double>(result.oocore_resident_peak_bytes) / kMiB,
             "MiB");
    m.metric("io.decode_ns_per_entry", decode_ns_per_entry, "ns");
    m.metric("pagerank.iterations",
             postmortem ? static_cast<double>(result.total_iterations) : 0.0,
             "count");
    m.metric("pagerank.edges_traversed", count(Counter::kEdgesTraversed),
             "count");
    m.metric("pagerank.reuse_frac",
             ratio(count(Counter::kVerticesReused),
                   count(Counter::kVerticesReused) +
                       count(Counter::kVerticesReseeded)),
             "ratio");
    m.metric("pagerank.compile_s", phase_s(pmpr::obs::Phase::kBuild), "s");
    m.metric("pagerank.init_s", phase_s(pmpr::obs::Phase::kInit), "s");
    m.metric("pagerank.iterate_s", phase_s(pmpr::obs::Phase::kIterate), "s");
    m.metric("pagerank.ns_per_edge", ratio(kp.sweep_ns, kp.sweep_edges), "ns");
    m.metric("pagerank.compile_ns_per_event",
             ratio(kp.compile_ns, kp.compile_events), "ns");
    m.metric("par.tasks", count(Counter::kTasksExecuted), "count");
    m.metric("par.steal_success_frac",
             ratio(count(Counter::kStealsSucceeded),
                   count(Counter::kStealsAttempted)),
             "ratio");
    m.metric("par.parks", count(Counter::kParks), "count");
    m.metric("par.unparks", count(Counter::kUnparks), "count");
    m.metric("par.cpu_util", ratio(cpu_s, run_s * 4.0), "ratio");
    m.metric("par.sys_frac", ratio(cpu1.sys - cpu0.sys, cpu_s), "ratio");
    m.metric("streaming.mutate_s", postmortem ? 0.0 : result.build_seconds,
             "s");
    m.metric("streaming.refresh_s", postmortem ? 0.0 : result.compute_seconds,
             "s");
    m.metric("streaming.iterations",
             postmortem ? 0.0 : static_cast<double>(result.total_iterations),
             "count");
    m.metric("sink.s",
             log->total_seconds("sink.consume_dense") +
                 log->total_seconds("sink.consume_mapped"),
             "s");
    m.metric("exec.first_window_s", first_window_s, "s");
    m.metric("exec.tail_s", tail_s, "s");
    m.metric("mem.setup_rss_mb", setup_rss_mb, "MiB");
    m.metric("mem.run_rss_growth_mb", run_rss_mb - setup_rss_mb, "MiB");
    out.raw("layers", m.close());
  }
  return out.close();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string input;
  std::string spill_dir = ".";
  std::string trace_out;
  bool setup_only = false;
  bool trace = false;
  std::int64_t run_id = 0;
  pmpr::Options opts("perfbench: one measured round of one workload");
  opts.add("workload", &workload_name,
           "postmortem-4t | oocore-1t | streaming-1t")
      .add("input", &input, "\"src dst time\" text file from perfbench_gen")
      .add("spill-dir", &spill_dir, "directory for the out-of-core store")
      .add("setup-only", &setup_only, "stop after set-up; report its time")
      .add("trace", &trace, "traced round: gates on, spans, probes")
      .add("trace-out", &trace_out, "write the spans here (Chrome JSON)")
      .add("run-id", &run_id, "id stamped on every span");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 2;
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == workload_name) wl = &w;
  }
  if (wl == nullptr || input.empty()) {
    std::fprintf(stderr, "perfbench_round: unknown --workload or no --input\n");
    return 2;
  }
  // Before anything touches the global pool, which reads it once.
  setenv("PMPR_THREADS", wl->pool_workers, 1);

  pmpr::obs::set_counters_enabled(trace);
  pmpr::obs::set_histograms_enabled(trace);
  std::unique_ptr<SpanLog> log =
      trace ? std::make_unique<SpanLog>(static_cast<std::uint64_t>(run_id))
            : nullptr;
  const std::string line =
      run_round(*wl, input, spill_dir, setup_only, log.get());
  std::printf("%s\n", line.c_str());
  if (log && !trace_out.empty()) log->write_chrome_json(trace_out);
  return 0;
}
