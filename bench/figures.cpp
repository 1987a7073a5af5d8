// The paper's Table 1 and Figs. 4-12 (ICPP'22 §6), one case each.
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exec/config.hpp"
#include "util/timer.hpp"

namespace pmpr::bench {
namespace {

using duration::kDay;
using duration::kYear;

std::string join_offsets(const std::vector<Timestamp>& xs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i != 0 ? "," : "") << xs[i];
  }
  return os.str();
}

std::string join_sizes(const std::vector<Timestamp>& xs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i != 0 ? "," : "") << fmt_days(xs[i]);
  }
  return os.str();
}

}  // namespace

// Table 1: the seven temporal datasets and their analysis parameters
// (sliding offsets, window sizes), plus surrogate statistics so the scaled
// reproduction is auditable against the paper's |Events| column.
void table1(const Args& args) {
  Table table("Table 1: Graphs and Parameters",
              {"name", "paper |Events|", "surrogate |Events|", "vertices seen",
               "span", "sliding offsets (s)", "window sizes"});

  for (const auto& base : gen::dataset_catalog()) {
    const TemporalEdgeList events = load_surrogate(base.name, args);
    std::set<VertexId> seen;
    for (const auto& e : events.events()) {
      seen.insert(e.src);
      seen.insert(e.dst);
    }

    table.add_row({base.name,
                   Table::fmt(static_cast<std::uint64_t>(base.paper_events)),
                   Table::fmt(static_cast<std::uint64_t>(events.size())),
                   Table::fmt(static_cast<std::uint64_t>(seen.size())),
                   fmt_days(base.t_end - base.t_begin),
                   join_offsets(base.sliding_offsets),
                   join_sizes(base.window_sizes)});
  }
  print(table, args);
}

// Figure 4: temporal edge distribution over the time period for each of the
// seven datasets. Prints one bucketed arrival-count series per surrogate;
// the shapes (Enron spike, Epinions burst, growth curves, YouTube's
// bursty-steady profile, HepTh irregularity) are what drive which
// parallelization level wins later.
void fig4(const Args& args) {
  for (const auto& base : gen::dataset_catalog()) {
    const TemporalEdgeList events = load_surrogate(base.name, args);
    const Timestamp t0 = events.min_time();
    const Timestamp t1 = events.max_time();
    const double span = static_cast<double>(t1 - t0) + 1.0;

    std::vector<std::size_t> counts(static_cast<std::size_t>(args.buckets), 0);
    for (const auto& e : events.events()) {
      auto b = static_cast<std::size_t>(
          static_cast<double>(e.time - t0) / span *
          static_cast<double>(args.buckets));
      if (b >= counts.size()) b = counts.size() - 1;
      ++counts[b];
    }
    const std::size_t peak =
        *std::max_element(counts.begin(), counts.end());

    Table table("Fig 4: " + base.name + " (" +
                    std::string(to_string(base.profile.shape)) + ")",
                {"bucket start (day)", "edge count", "histogram"});
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const auto day = static_cast<Timestamp>(
          (static_cast<double>(t0 - base.t_begin) +
           static_cast<double>(b) * span / static_cast<double>(args.buckets)) /
          static_cast<double>(kDay));
      const std::size_t bar_len =
          peak > 0 ? counts[b] * 40 / peak : 0;
      table.add_row({Table::fmt(static_cast<std::int64_t>(day)),
                     Table::fmt(static_cast<std::uint64_t>(counts[b])),
                     std::string(bar_len, '#')});
    }
    print(table, args);
  }
}

// Figure 5: Offline vs Streaming vs Postmortem wall time on four datasets
// (Enron, YouTube, Epinions, wiki-talk) across their window-size grids.
// Postmortem here is the paper's "bare-bones" configuration: partial
// initialization, 6 multi-window graphs, application-level parallelism —
// no per-dataset tuning.
Fig5Cell fig5_cell(const TemporalEdgeList& events, const WindowSpec& spec) {
  PostmortemConfig cfg;
  cfg.mode = ParallelMode::kPagerank;
  cfg.kernel = KernelKind::kSpmv;
  cfg.partitioner = par::Partitioner::kStatic;
  cfg.num_multi_windows = 6;
  cfg.partial_init = true;
  Fig5Cell cell;
  cell.offline = time_offline(events, spec);
  cell.streaming = time_streaming(events, spec);
  ChecksumSink sink(spec.count);
  cell.postmortem = run_postmortem(events, spec, sink, cfg);
  return cell;
}

void fig5(const Args& args) {
  struct Setup {
    const char* dataset;
    Timestamp sw;
    std::vector<Timestamp> deltas;
  };
  const std::vector<Setup> setups{
      {"ia-enron-email", 172'800, {2 * kYear, 4 * kYear}},
      {"youtube-growth", 86'400, {60 * kDay, 90 * kDay}},
      {"epinions-user-ratings", 86'400, {60 * kDay, 90 * kDay}},
      {"wiki-talk", 259'200,
       {10 * kDay, 15 * kDay, 90 * kDay, 180 * kDay}},
  };

  Table table("Fig 5: execution model comparison (seconds)",
              {"dataset", "sliding offset (s)", "window size", "windows",
               "offline", "streaming", "postmortem", "best"});

  for (const auto& setup : setups) {
    const TemporalEdgeList events = load_surrogate(setup.dataset, args);
    for (const Timestamp delta : setup.deltas) {
      const WindowSpec spec = WindowSpec::cover_capped(
          events.min_time(), events.max_time(), delta, setup.sw,
          static_cast<std::size_t>(args.max_windows));
      const Fig5Cell cell = fig5_cell(events, spec);
      const double offline = cell.offline;
      const double streaming = cell.streaming;
      const double postmortem =
          cell.postmortem.build_seconds + cell.postmortem.compute_seconds;

      const char* best = "postmortem";
      if (offline < streaming && offline < postmortem) best = "offline";
      if (streaming < offline && streaming < postmortem) best = "streaming";

      table.add_row({setup.dataset, Table::fmt(setup.sw), fmt_days(delta),
                     Table::fmt(static_cast<std::uint64_t>(spec.count)),
                     Table::fmt(offline, 3), Table::fmt(streaming, 3),
                     Table::fmt(postmortem, 3), best});
    }
  }
  print(table, args);
}

// Figure 6: impact of partial initialization (Eq. 4) on stackoverflow and
// wiki-talk — speedup of partial over full initialization per window size,
// plus the iteration counts that explain it. The paper reports 1.5x-3.5x,
// growing with window size (more overlap -> better warm starts).
Fig6Cell fig6_cell(const MultiWindowSet& set) {
  PostmortemConfig cfg;
  cfg.mode = ParallelMode::kPagerank;
  cfg.kernel = KernelKind::kSpmv;
  cfg.num_multi_windows = 6;
  Fig6Cell cell;
  cfg.partial_init = false;
  cell.full = run_prebuilt(set, cfg);
  cfg.partial_init = true;
  cell.partial = run_prebuilt(set, cfg);
  return cell;
}

void fig6(const Args& args) {
  const Timestamp sw = 43'200;
  const std::vector<Timestamp> deltas{10 * kDay, 15 * kDay, 90 * kDay,
                                      180 * kDay};

  Table table("Fig 6: partial initialization speedup (sliding offset 43,200)",
              {"dataset", "window size", "windows", "iters full",
               "iters partial", "time full (s)", "time partial (s)",
               "speedup"});

  for (const char* name : {"stackoverflow", "wiki-talk"}) {
    const TemporalEdgeList events = load_surrogate(name, args);
    for (const Timestamp delta : deltas) {
      const WindowSpec spec = WindowSpec::cover_capped(
          events.min_time(), events.max_time(), delta, sw,
          static_cast<std::size_t>(args.max_windows));
      const MultiWindowSet set = MultiWindowSet::build(events, spec, 6);
      const Fig6Cell cell = fig6_cell(set);
      const RunResult& full = cell.full;
      const RunResult& part = cell.partial;

      table.add_row(
          {name, fmt_days(delta),
           Table::fmt(static_cast<std::uint64_t>(spec.count)),
           Table::fmt(full.total_iterations),
           Table::fmt(part.total_iterations),
           Table::fmt(full.compute_seconds, 3),
           Table::fmt(part.compute_seconds, 3),
           Table::fmt(part.compute_seconds > 0
                          ? full.compute_seconds / part.compute_seconds
                          : 0.0,
                      2)});
    }
  }
  print(table, args);
}

// Figures 7, 9 and 10: postmortem PageRank speedup over streaming on
// wiki-talk for every combination of TBB-style partitioner x
// parallelization level x SpMV/SpMM kernel, across grain sizes 1..2048.
// Fig. 7 has 256 windows (sw = 43,200 s, delta = 90 days); Fig. 9 only 6
// (sw = 43,200 s, delta = 10 days), so window-level parallelism starves;
// Fig. 10 has 1,024 (sw = 86,400 s, delta = 90 days).
void granularity(const char* figure, Timestamp delta, Timestamp sw,
                 std::size_t windows, const Args& args) {
  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const WindowSpec spec = last_windows(events, delta, sw, windows);
  const MultiWindowSet set = MultiWindowSet::build(
      events, spec, static_cast<std::size_t>(args.multi_windows));

  const double streaming = time_streaming(events, spec);

  const std::vector<std::size_t> grains{1,  2,  4,   8,   16,  32,
                                        64, 128, 256, 512, 1024, 2048};
  const std::vector<par::Partitioner> partitioners{
      par::Partitioner::kAuto, par::Partitioner::kSimple,
      par::Partitioner::kStatic};
  const std::vector<ParallelMode> modes{
      ParallelMode::kNested, ParallelMode::kPagerank, ParallelMode::kWindow};
  const std::vector<KernelKind> kernels{KernelKind::kSpmm, KernelKind::kSpmv};

  Table table(std::string(figure) + ": speedup over streaming, wiki-talk (sw=" +
                  std::to_string(sw) + ", delta=" + fmt_days(delta) +
                  ", windows=" + std::to_string(spec.count) +
                  ", streaming=" + Table::fmt(streaming, 3) + "s)",
              {"partitioner", "mode", "kernel", "grain", "time (s)",
               "speedup"});

  for (const auto partitioner : partitioners) {
    for (const auto mode : modes) {
      for (const auto kernel : kernels) {
        for (const std::size_t grain : grains) {
          PostmortemConfig cfg;
          cfg.mode = mode;
          cfg.kernel = kernel;
          cfg.partitioner = partitioner;
          cfg.grain = grain;
          cfg.vector_length = static_cast<std::size_t>(args.veclen);
          cfg.num_multi_windows = static_cast<std::size_t>(args.multi_windows);
          const double t = run_prebuilt(set, cfg).compute_seconds;
          table.add_row({std::string(to_string(partitioner)),
                         std::string(to_string(mode)),
                         std::string(to_string(kernel)),
                         Table::fmt(static_cast<std::uint64_t>(grain)),
                         Table::fmt(t, 4),
                         Table::fmt(t > 0 ? streaming / t : 0.0, 1)});
        }
      }
    }
  }
  print(table, args);
}

// Figure 8: impact of the number of multi-window graphs (Y) on wiki-talk,
// per parallelization level and grain size. Too few parts -> each SpMV
// traverses events of unrelated windows; past "large enough" the
// performance flattens (the paper's observation).
void fig8(const Args& args) {
  const TemporalEdgeList events = load_surrogate("wiki-talk", args);
  const WindowSpec spec = last_windows(events, 90 * kDay, 43'200,
                                       static_cast<std::size_t>(args.windows));
  const double streaming = time_streaming(events, spec);

  const std::vector<std::size_t> multi_windows{6, 32, 256, 512, 1024};
  const std::vector<std::size_t> grains{1, 16, 256};
  const std::vector<ParallelMode> modes{
      ParallelMode::kPagerank, ParallelMode::kWindow, ParallelMode::kNested};

  Table table(
      "Fig 8: multi-window count sweep, wiki-talk (auto partitioner, SpMV, "
      "windows=" + std::to_string(spec.count) +
          ", streaming=" + Table::fmt(streaming, 3) + "s)",
      {"mode", "multi-windows", "grain", "build (s)", "compute (s)",
       "speedup"});

  for (const auto mode : modes) {
    for (const std::size_t y : multi_windows) {
      Timer build_timer;
      const MultiWindowSet set = MultiWindowSet::build(events, spec, y);
      const double build = build_timer.seconds();
      for (const std::size_t grain : grains) {
        PostmortemConfig cfg;
        cfg.mode = mode;
        cfg.kernel = KernelKind::kSpmv;
        cfg.partitioner = par::Partitioner::kAuto;
        cfg.grain = grain;
        cfg.num_multi_windows = y;
        const double t = run_prebuilt(set, cfg).compute_seconds;
        table.add_row({std::string(to_string(mode)),
                       Table::fmt(static_cast<std::uint64_t>(set.num_parts())),
                       Table::fmt(static_cast<std::uint64_t>(grain)),
                       Table::fmt(build, 3), Table::fmt(t, 4),
                       Table::fmt(t > 0 ? streaming / t : 0.0, 1)});
      }
    }
  }
  print(table, args);
}

// Figure 11: best postmortem-over-streaming speedup per (sliding offset,
// window size) cell for all seven datasets — the paper's headline heatmaps
// (50x-880x on the authors' testbed; scaled surrogates land in the same
// orders of magnitude with the same orderings).
void fig11(const Args& args) {
  Table table("Fig 11: best postmortem speedup over streaming",
              {"dataset", "sliding offset (s)", "window size", "windows",
               "streaming (s)", "best postmortem (s)", "best config",
               "speedup"});

  for (const auto& base : gen::dataset_catalog()) {
    const TemporalEdgeList events = load_surrogate(base.name, args);
    for (const Timestamp sw : base.sliding_offsets) {
      for (const Timestamp delta : base.window_sizes) {
        const WindowSpec spec = WindowSpec::cover_capped(
            events.min_time(), events.max_time(), delta, sw,
            static_cast<std::size_t>(args.max_windows));
        const double streaming = time_streaming(events, spec);

        // Small tuning set, as in the paper's "best over configurations".
        double best = -1.0;
        std::string best_name;
        for (const auto mode :
             {ParallelMode::kNested, ParallelMode::kPagerank}) {
          for (const auto kernel : {KernelKind::kSpmm, KernelKind::kSpmv}) {
            PostmortemConfig cfg;
            cfg.mode = mode;
            cfg.kernel = kernel;
            cfg.grain = 2;
            cfg.num_multi_windows = 6;
            const double t = time_postmortem(events, spec, cfg);
            if (best < 0.0 || t < best) {
              best = t;
              best_name = std::string(to_string(mode)) + "/" +
                          std::string(to_string(kernel));
            }
          }
        }

        table.add_row({base.name, Table::fmt(sw), fmt_days(delta),
                       Table::fmt(static_cast<std::uint64_t>(spec.count)),
                       Table::fmt(streaming, 3), Table::fmt(best, 3),
                       best_name,
                       Table::fmt(best > 0 ? streaming / best : 0.0, 1)});
      }
    }
  }
  print(table, args);
}

// Figure 12: performance of the §6.3.6 suggested parameters (SpMM, auto
// partitioner, grain <= 4, nested unless the workload is dominated or has
// few windows) on wiki-talk across the sliding-offset x window-size grid —
// "very honorable performance at little tuning cost".
void fig12(const Args& args) {
  const gen::DatasetSpec& base = gen::dataset_by_name("wiki-talk");
  const TemporalEdgeList events = load_surrogate(base.name, args);

  Table table("Fig 12: suggested-parameter postmortem speedup on wiki-talk",
              {"sliding offset (s)", "window size", "windows", "mode chosen",
               "streaming (s)", "postmortem (s)", "speedup"});

  for (const Timestamp sw : base.sliding_offsets) {
    for (const Timestamp delta : base.window_sizes) {
      const WindowSpec spec = WindowSpec::cover_capped(
          events.min_time(), events.max_time(), delta, sw,
          static_cast<std::size_t>(args.max_windows));
      const double streaming = time_streaming(events, spec);

      const PostmortemConfig cfg = suggest_config_for(events, spec);
      const double t = time_postmortem(events, spec, cfg);

      table.add_row({Table::fmt(sw), fmt_days(delta),
                     Table::fmt(static_cast<std::uint64_t>(spec.count)),
                     std::string(to_string(cfg.mode)),
                     Table::fmt(streaming, 3), Table::fmt(t, 3),
                     Table::fmt(t > 0 ? streaming / t : 0.0, 1)});
    }
  }
  print(table, args);
}

}  // namespace pmpr::bench
