// Kernel timings: the building blocks whose costs explain the figure-level
// results — temporal CSR construction, one SpMV iteration vs one SpMM
// iteration (compiled, and the reference kernels of the test oracle), the
// batch compile they amortize, streaming graph mutation and window-graph
// reconstruction (the offline model's per-window cost). `suite` gates the
// sweeps through the same functions.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "graph/csr.hpp"
#include "graph/temporal_csr.hpp"
#include "oracle/reference_kernels.hpp"
#include "pagerank/batch_csr.hpp"
#include "pagerank/partial_init.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "streaming/dynamic_graph.hpp"

namespace pmpr::bench {
namespace {

/// Every sweep kernel's timed call is exactly one traversal.
constexpr PagerankParams kOneTraversal{.tol = 0.0, .max_iters = 1};

double events_of(const MultiWindowGraph& part) {
  return static_cast<double>(part.num_events);
}

/// The postmortem runner's first 16-lane SpMM batch of the part (16 is
/// the paper's preferred vector length): its first 16 adjacent windows,
/// fewer at tiny scales.
SpmmBatch spmm16_batch(const MultiWindowGraph& part) {
  SpmmBatch batch;
  batch.lanes = std::min<std::size_t>(16, part.num_windows);
  batch.first_window = part.first_window;
  return batch;
}

/// A compiled SpMM sweep of `batch` over `part` of a set with `spec`.
KernelTime spmm_compiled(const MultiWindowGraph& part, const WindowSpec& spec,
                         const SpmmBatch& batch, std::int64_t iters) {
  SpmmWindowState ws;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, spec, batch, ws, compiled);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * batch.lanes, 1.0 / static_cast<double>(n));
  std::vector<double> scratch(n * batch.lanes);
  return time_kernel(iters, events_of(part) * batch.lanes, [&] {
    pagerank_spmm(ws, compiled, x, scratch, kOneTraversal);
  });
}

KernelTime temporal_csr_build(const KernelFixture& f, std::int64_t iters) {
  const auto slice = f.events.slice(f.spec.start(0), f.spec.end(16));
  return time_kernel(iters, static_cast<double>(slice.size()), [&] {
    TemporalCsr::build(slice, f.events.num_vertices(), true);
  });
}

KernelTime window_graph_build(const KernelFixture& f, std::int64_t iters) {
  const auto slice = f.events.slice(f.spec.start(0), f.spec.end(0));
  return time_kernel(iters, static_cast<double>(slice.size()), [&] {
    build_window_graph(slice, f.events.num_vertices());
  });
}

KernelTime spmm16_ref(const KernelFixture& f, std::int64_t iters) {
  const MultiWindowGraph& part = f.set.part(0);
  const SpmmBatch batch = spmm16_batch(part);
  SpmmWindowState ws;
  oracle::compute_spmm_state(part, f.spec, batch, ws);
  const std::size_t n = part.num_local();
  std::vector<double> x(n * batch.lanes, 1.0 / static_cast<double>(n));
  std::vector<double> scratch(n * batch.lanes);
  return time_kernel(iters, events_of(part) * batch.lanes, [&] {
    oracle::pagerank_spmm(part, f.spec, batch, ws, x, scratch, kOneTraversal);
  });
}

/// The one-off cost the compiled sweeps amortize: the run-compressed
/// adjacency and lane masks of a 16-lane batch.
KernelTime spmm16_compile(const KernelFixture& f, std::int64_t iters) {
  const MultiWindowGraph& part = f.set.part(0);
  const SpmmBatch batch = spmm16_batch(part);
  SpmmWindowState ws;
  CompiledBatchCsr compiled;
  return time_kernel(iters, events_of(part), [&] {
    compile_spmm_batch(part, f.spec, batch, ws, compiled);
  });
}

KernelTime streaming_window_advance(const KernelFixture& f,
                                    std::int64_t iters) {
  const WindowSpec& s = f.spec;
  return time_kernel(iters, 0.0, [&] {
    pmpr::streaming::DynamicGraph g(f.events.num_vertices());
    g.insert_batch(f.events.slice(s.start(0), s.end(0)));
    g.remove_batch(f.events.slice(s.start(0), s.start(1) - 1));
    g.insert_batch(f.events.slice(s.end(0) + 1, s.end(1)));
  });
}

KernelTime multi_window_set_build(const KernelFixture& f, std::int64_t iters) {
  return time_kernel(iters, static_cast<double>(f.events.size()),
                     [&] { MultiWindowSet::build(f.events, f.spec, 6); });
}

}  // namespace

KernelFixture::KernelFixture(const TemporalEdgeList& e, std::size_t windows)
    : events(e),
      spec(last_windows(e, 90 * duration::kDay, 86'400, windows)),
      set(MultiWindowSet::build(e, spec, 2)) {}

KernelTime spmv_ref(const KernelFixture& f, std::int64_t iters) {
  const MultiWindowGraph& part = f.set.part(0);
  const std::size_t w = part.first_window;
  oracle::WindowState ws;
  oracle::compute_window_state(part, f.spec.start(w), f.spec.end(w), ws);
  std::vector<double> x(part.num_local());
  std::vector<double> scratch(part.num_local());
  full_init(ws.active, ws.num_active, x);
  return time_kernel(iters, events_of(part), [&] {
    oracle::pagerank_window_spmv(part, f.spec.start(w), f.spec.end(w), ws, x,
                                 scratch, kOneTraversal);
  });
}

/// The kSpmv kernel: a one-lane compiled batch of the part's first window.
KernelTime spmv_compiled(const KernelFixture& f, std::int64_t iters) {
  const MultiWindowGraph& part = f.set.part(0);
  SpmmWindowState ws;
  CompiledBatchCsr compiled;
  compile_spmm_batch(part, f.spec, SpmmBatch{1, part.first_window}, ws,
                     compiled);
  std::vector<double> x(part.num_local());
  std::vector<double> scratch(part.num_local());
  spmm_full_init(ws.active_mask, ws.num_active, x);
  return time_kernel(iters, events_of(part), [&] {
    pagerank_spmm(ws, compiled, x, scratch, kOneTraversal);
  });
}

KernelTime spmm16_compiled(const KernelFixture& f, std::int64_t iters) {
  const MultiWindowGraph& part = f.set.part(0);
  return spmm_compiled(part, f.spec, spmm16_batch(part), iters);
}

KernelTime spmm_wide(const TemporalEdgeList& events, std::size_t lanes,
                     std::int64_t iters) {
  // The 16-lane geometry (90-day windows one day apart, at the end of the
  // data), so ns per lane compares across widths; a full mask word
  // exercises every AVX2 nibble and AVX-512 byte group of the sweeps.
  const WindowSpec spec =
      last_windows(events, 90 * duration::kDay, 86'400, lanes);
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 1);
  SpmmBatch batch;
  batch.lanes = lanes;
  batch.first_window = set.part(0).first_window;
  return spmm_compiled(set.part(0), spec, batch, iters);
}

void micro(const Args& args) {
  // --json records each kernel's counter deltas; a plain run times the
  // counters-off fast path.
  if (!args.json.empty()) obs::set_counters_enabled(true);
  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const KernelFixture f(events, 64);
  const std::int64_t n = args.micro_iters;
  // A 64-lane sweep does 4x the work of the 16-lane one: fewer calls.
  const std::int64_t wide_iters = std::max<std::int64_t>(10, n / 4);
  const std::vector<std::pair<std::string, KernelTime>> kernels{
      {"micro.temporal_csr_build", temporal_csr_build(f, n)},
      {"micro.window_graph_build", window_graph_build(f, n)},
      {"micro.spmv_ref", spmv_ref(f, n)},
      {"micro.spmv_compiled", spmv_compiled(f, n)},
      {"micro.spmm16_ref", spmm16_ref(f, n)},
      {"micro.spmm16_compiled", spmm16_compiled(f, n)},
      {"micro.spmm64_compiled", spmm_wide(events, 64, wide_iters)},
      {"micro.spmm16_compile", spmm16_compile(f, n)},
      {"micro.streaming_window_advance", streaming_window_advance(f, n)},
      {"micro.multi_window_set_build", multi_window_set_build(f, n)},
  };

  Table table("Kernel timings, wiki-talk (fastest of " + std::to_string(n) +
                  " calls; sweeps are one traversal)",
              {"kernel", "ns/call", "items/call", "ns/item"});
  JsonEmitter json;
  for (const auto& [name, t] : kernels) {
    json.set(name, "ns_per_iteration", t.ns);
    if (t.items > 0.0) {
      json.set(name, "items_per_second", t.items * 1e9 / t.ns);
      json.set(name, "ns_per_item", t.ns / t.items);
    }
    json.set_counters(name, t.counters);
    table.add_row({name, Table::fmt(t.ns, 0), Table::fmt(t.items, 0),
                   t.items > 0.0 ? Table::fmt(t.ns / t.items, 3) : "-"});
  }
  // Same input and work per call, so the time ratio is the throughput
  // ratio of the compiled kernel over its reference.
  const auto ns = [&](const std::string& name) {
    return std::find_if(kernels.begin(), kernels.end(),
                        [&](const auto& k) { return k.first == name; })
        ->second.ns;
  };
  for (const char* kernel : {"spmv", "spmm16"}) {
    const std::string rec = "micro." + std::string(kernel) + "_compiled";
    json.set(rec, "speedup_vs_reference",
             ns("micro." + std::string(kernel) + "_ref") / ns(rec));
  }
  print(table, args);
  if (!args.json.empty()) json.write(args.json);
}

}  // namespace pmpr::bench
