// Ablations of the design choices DESIGN.md §5 lists, one case each.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/temporal_csr.hpp"
#include "util/rng.hpp"

namespace pmpr::bench {
namespace {

using duration::kDay;

/// Events with a controlled number of repeats per vertex pair.
TemporalEdgeList repeated_events(std::size_t pairs, std::size_t repeats,
                                 Timestamp t_max, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TemporalEdgeList events;
  const auto n = static_cast<VertexId>(std::max<std::size_t>(64, pairs / 8));
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto u = static_cast<VertexId>(rng.bounded(n));
    const auto v = static_cast<VertexId>(rng.bounded(n));
    for (std::size_t r = 0; r < repeats; ++r) {
      events.add(u, v,
                 static_cast<Timestamp>(rng.bounded(
                     static_cast<std::uint64_t>(t_max) + 1)));
    }
  }
  events.ensure_vertices(n);
  events.sort_by_time();
  return events;
}

}  // namespace

// SpMM vector length (the paper uses 8 or 16 and notes that very large
// vectors erode partial initialization because every lane of the first
// batch cold-starts). Sweeps L = 1..64 on wiki-talk and reports time plus
// total iterations.
RunResult veclen_cell(const MultiWindowSet& set, std::size_t veclen) {
  PostmortemConfig cfg;
  cfg.mode = ParallelMode::kPagerank;
  cfg.kernel = KernelKind::kSpmm;
  cfg.vector_length = veclen;
  cfg.num_multi_windows = 6;
  return run_prebuilt(set, cfg);
}

void veclen(const Args& args) {
  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const WindowSpec spec = last_windows(events, 90 * kDay, 43'200,
                                       static_cast<std::size_t>(args.windows));
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 6);

  Table table("Ablation: SpMM vector length, wiki-talk (windows=" +
                  std::to_string(spec.count) + ")",
              {"vector length", "compute (s)", "total iterations",
               "iters/window"});

  for (const std::size_t lanes : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const RunResult r = veclen_cell(set, lanes);
    table.add_row(
        {Table::fmt(static_cast<std::uint64_t>(lanes)),
         Table::fmt(r.compute_seconds, 4), Table::fmt(r.total_iterations),
         Table::fmt(static_cast<double>(r.total_iterations) /
                        static_cast<double>(spec.count),
                    2)});
  }
  print(table, args);
}

// What partial initialization buys each kernel. A batch holds adjacent
// windows, and each batch after a part's first seeds every lane from the
// previous batch's last window (1..veclen windows back); SpMV seeds each
// window from its direct predecessor.
void spmm_order(const Args& args) {
  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const WindowSpec spec = last_windows(events, 90 * kDay, 43'200,
                                       static_cast<std::size_t>(args.windows));
  const MultiWindowSet set = MultiWindowSet::build(events, spec, 6);

  struct Variant {
    const char* name;
    KernelKind kernel;
    bool partial;
  };
  const std::vector<Variant> variants{
      {"SpMM + partial init", KernelKind::kSpmm, true},
      {"SpMM, full init", KernelKind::kSpmm, false},
      {"SpMV + partial init", KernelKind::kSpmv, true},
      {"SpMV, full init", KernelKind::kSpmv, false},
  };

  Table table("Ablation: SpMM and SpMV with and without partial init, "
              "wiki-talk (windows=" +
                  std::to_string(spec.count) +
                  ", veclen=" + std::to_string(args.veclen) + ")",
              {"variant", "compute (s)", "total iterations"});

  for (const auto& v : variants) {
    PostmortemConfig cfg;
    cfg.mode = ParallelMode::kPagerank;
    cfg.kernel = v.kernel;
    cfg.partial_init = v.partial;
    cfg.vector_length = static_cast<std::size_t>(args.veclen);
    cfg.num_multi_windows = 6;
    const RunResult r = run_prebuilt(set, cfg);
    table.add_row({v.name, Table::fmt(r.compute_seconds, 4),
                   Table::fmt(r.total_iterations)});
  }
  print(table, args);
}

// Linear run scan vs per-run binary search in the temporal CSR time filter
// (DESIGN.md §5). Real event data has short runs (few repeats per vertex
// pair) where the linear scan wins; synthetic heavy-multigraph data has
// long runs where lower_bound pays. This case sweeps run length.
void timescan(const Args& args) {
  Table table("Ablation: temporal CSR time-filter scan strategy",
              {"run length", "linear (s)", "binsearch (s)",
               "linear/binsearch"});

  for (const std::size_t repeats : {1u, 2u, 4u, 16u, 64u, 256u}) {
    const auto pairs = static_cast<std::size_t>(args.events) / repeats;
    const TemporalEdgeList events =
        repeated_events(pairs, repeats, 1'000'000, 42 + repeats);
    const TemporalCsr g =
        TemporalCsr::build(events.events(), events.num_vertices(), true);

    // Query a 10%-of-range window repeatedly.
    const Timestamp ts = 450'000;
    const Timestamp te = 550'000;
    volatile std::uint64_t sink = 0;
    const int timed = static_cast<int>(std::max<std::int64_t>(args.repeats, 3));

    const auto linear = median(time_repeats(
        [&] {
          std::uint64_t count = 0;
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            g.for_each_active_neighbor(v, ts, te,
                                       [&](VertexId) { ++count; });
          }
          sink = count;
        },
        timed));

    const auto binsearch = median(time_repeats(
        [&] {
          std::uint64_t count = 0;
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            g.for_each_active_neighbor_binsearch(v, ts, te,
                                                 [&](VertexId) { ++count; });
          }
          sink = count;
        },
        timed));

    table.add_row({Table::fmt(static_cast<std::uint64_t>(repeats)),
                   Table::fmt(linear, 5), Table::fmt(binsearch, 5),
                   Table::fmt(binsearch > 0 ? linear / binsearch : 0.0, 2)});
  }
  print(table, args);
}

// The streaming baseline's three refresh strategies — cold restart, warm
// restart (previous solution carried over), and Riedy-style ∆-push
// (Eq. 3). Relevant to how strong a baseline the paper's streaming
// comparison is: the reported 50x-880x is against STINGER's incremental
// algorithm, i.e. the strongest of these.
void streaming(const Args& args) {
  Table table("Ablation: streaming refresh strategy (wiki-talk, sw=86,400, "
              "delta=90d)",
              {"strategy", "mutate (s)", "compute (s)", "total iterations"});

  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const WindowSpec spec = WindowSpec::cover_capped(
      events.min_time(), events.max_time(), 90 * kDay, 86'400,
      static_cast<std::size_t>(args.max_windows));

  struct Variant {
    const char* name;
    bool incremental;
    StreamingAlgorithm algorithm;
  };
  const std::vector<Variant> variants{
      {"cold restart", false, StreamingAlgorithm::kWarmRestart},
      {"warm restart", true, StreamingAlgorithm::kWarmRestart},
      {"delta-push (Eq. 3)", true, StreamingAlgorithm::kDeltaPush},
  };

  for (const auto& v : variants) {
    StreamingOptions sopts;
    sopts.incremental = v.incremental;
    sopts.algorithm = v.algorithm;
    ChecksumSink sink(spec.count);
    const RunResult r = run_streaming(events, spec, sink, sopts);
    table.add_row({v.name, Table::fmt(r.build_seconds, 3),
                   Table::fmt(r.compute_seconds, 3),
                   Table::fmt(r.total_iterations)});
  }
  print(table, args);
}

// Uniform-window vs event-balanced multi-window decomposition (the paper's
// conclusion raises this as future work: equal window counts "may not be
// the decomposition that minimize memory and work overheads"). Spike-shaped
// datasets (Enron, Epinions) are where the uniform scheme concentrates most
// events into one part.
void partition_policy(const Args& args) {
  Table table("Ablation: partition policy (window-level parallel SpMV)",
              {"dataset", "policy", "max part events", "total part events",
               "compute (s)"});

  for (const char* name :
       {"ia-enron-email", "epinions-user-ratings", "wiki-talk"}) {
    const TemporalEdgeList events = load_surrogate(name, args);
    const gen::DatasetSpec& base = gen::dataset_by_name(name);
    const WindowSpec spec = WindowSpec::cover_capped(
        events.min_time(), events.max_time(), base.window_sizes.front(),
        base.sliding_offsets.front(),
        static_cast<std::size_t>(args.max_windows));

    for (const auto policy : {PartitionPolicy::kUniformWindows,
                              PartitionPolicy::kBalancedEvents}) {
      const MultiWindowSet set = MultiWindowSet::build(
          events, spec, static_cast<std::size_t>(args.parts), policy);
      std::size_t max_events = 0;
      for (std::size_t p = 0; p < set.num_parts(); ++p) {
        max_events = std::max(max_events, set.part(p).num_events);
      }

      PostmortemConfig cfg;
      cfg.mode = ParallelMode::kWindow;
      cfg.kernel = KernelKind::kSpmv;
      cfg.num_multi_windows = static_cast<std::size_t>(args.parts);
      cfg.partition_policy = policy;
      const double t = run_prebuilt(set, cfg).compute_seconds;

      table.add_row({name, std::string(to_string(policy)),
                     Table::fmt(static_cast<std::uint64_t>(max_events)),
                     Table::fmt(static_cast<std::uint64_t>(set.total_events())),
                     Table::fmt(t, 4)});
    }
  }
  print(table, args);
}

}  // namespace pmpr::bench
