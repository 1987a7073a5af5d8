// pmpr_bench: one driver for the paper's evaluation (ICPP'22 §6). Each
// table, figure and ablation is a named case, beside `suite` (the
// perf-regression gate's records) and `micro` (kernel timings):
//
//   ./pmpr_bench --list
//   ./pmpr_bench fig5 --scale 0.05 --max-windows 64
//   ./pmpr_bench fig6 --help          # the flags fig6 reads
//
// A case accepts only the flags it reads. Every flag is checked before
// any work: a bad value exits 1 with one line on stderr.
#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "pagerank/window_state.hpp"
#include "util/options.hpp"

namespace pmpr::bench {
namespace {

using duration::kDay;

struct Case {
  const char* name;
  const char* summary;
  const char* flags;  ///< Space-separated names of the flags it reads.
  void (*run)(const Args&);
  Args defaults;  ///< Where the case's defaults differ from Args'.
};

const Case kCases[] = {
    {"table1", "Table 1 - graphs and parameters (paper vs surrogate)",
     "scale seed csv", table1, {}},
    {"fig4", "Figure 4 - temporal edge distribution per dataset",
     "scale seed csv buckets", fig4, {}},
    {"fig5", "Figure 5 - offline vs streaming vs postmortem",
     "scale seed csv max-windows", fig5, {}},
    {"fig6", "Figure 6 - full vs partial initialization",
     "scale seed csv max-windows", fig6, {}},
    {"fig7", "Figure 7 - partitioner/granularity sweep, 256 windows",
     "scale seed csv veclen multi-windows",
     [](const Args& a) { granularity("Fig 7", 90 * kDay, 43'200, 256, a); },
     {}},
    {"fig8", "Figure 8 - number of multi-window graphs",
     "scale seed csv windows", fig8, {.scale = 0.05, .windows = 1024}},
    {"fig9", "Figure 9 - partitioner/granularity sweep, 6 windows",
     "scale seed csv veclen multi-windows",
     [](const Args& a) { granularity("Fig 9", 10 * kDay, 43'200, 6, a); },
     {}},
    {"fig10", "Figure 10 - partitioner/granularity sweep, 1024 windows",
     "scale seed csv veclen multi-windows",
     [](const Args& a) { granularity("Fig 10", 90 * kDay, 86'400, 1024, a); },
     {.scale = 0.03}},
    {"fig11", "Figure 11 - best postmortem speedup over streaming",
     "scale seed csv max-windows", fig11,
     {.scale = 0.05, .max_windows = 128}},
    {"fig12", "Figure 12 - suggested parameters on wiki-talk",
     "scale seed csv max-windows", fig12, {.max_windows = 128}},
    {"veclen", "Ablation - SpMM vector length", "scale seed csv windows",
     veclen, {}},
    {"spmm_order", "Ablation - SpMM and SpMV with and without partial init",
     "scale seed csv windows veclen", spmm_order, {}},
    {"timescan", "Ablation - linear vs binary-search time scan",
     "csv repeats events", timescan, {}},
    {"streaming", "Ablation - streaming PageRank refresh strategies",
     "scale seed csv max-windows", streaming, {}},
    {"partition_policy", "Ablation - multi-window partition policy",
     "scale seed csv max-windows parts", partition_policy, {}},
    {"suite", "Curated perf-regression suite -> BENCH_suite.json",
     "scale seed csv repeats json max-windows micro-iters", suite,
     {.scale = 0.02, .json = "BENCH_suite.json", .max_windows = 64}},
    {"micro", "Kernel timings, min of --micro-iters calls each",
     "scale seed csv json micro-iters", micro, {.scale = 0.05}},
};

/// An integer flag: every one must be >= 1, and at most `max`.
struct Count {
  const char* name;
  std::int64_t Args::*field;
  const char* help;
  std::int64_t max;
};

constexpr std::int64_t kNoMax = INT64_MAX;
constexpr std::int64_t kIntMax = INT_MAX;  // call counts become ints
const Count kCounts[] = {
    {"repeats", &Args::repeats, "timing repeats", kIntMax},
    {"max-windows", &Args::max_windows, "cap on windows per configuration",
     kNoMax},
    {"windows", &Args::windows, "number of analysis windows", kNoMax},
    {"events", &Args::events, "events per configuration", kNoMax},
    {"buckets", &Args::buckets, "number of time buckets per dataset", kNoMax},
    {"veclen", &Args::veclen, "SpMM vector length",
     static_cast<std::int64_t>(kMaxSpmmLanes)},
    {"multi-windows", &Args::multi_windows, "number of multi-window graphs",
     kNoMax},
    {"parts", &Args::parts, "number of multi-window graphs", kNoMax},
    {"micro-iters", &Args::micro_iters, "timed calls per kernel", kIntMax},
};

void add_flag(Options& opts, const std::string& name, Args& args) {
  if (name == "scale") {
    opts.add(name, &args.scale, "surrogate dataset scale factor");
  } else if (name == "seed") {
    opts.add(name, &args.seed, "generator seed");
  } else if (name == "csv") {
    opts.add(name, &args.csv, "print CSV instead of aligned text");
  } else if (name == "json") {
    opts.add(name, &args.json, "write machine-readable results to this path");
  }
  for (const Count& c : kCounts) {
    if (name == c.name) opts.add(name, &(args.*c.field), c.help);
  }
}

/// Rejects a bad flag value: one line on stderr, exit status 1.
int reject(const std::string& why) {
  std::fprintf(stderr, "pmpr_bench: %s\n", why.c_str());
  return 1;
}

int run(const Case& c, int argc, char** argv) {
  Args args = c.defaults;
  Options opts(c.summary);
  std::istringstream flags(c.flags);
  for (std::string name; flags >> name;) add_flag(opts, name, args);
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 1;
  // Every flag is checked here, before any work: a bad value exits 1
  // instead of aborting or silently running another experiment.
  if (!(args.scale > 0.0) || !std::isfinite(args.scale)) {
    std::ostringstream value;
    value << args.scale;
    return reject("--scale " + value.str() + " must be a finite value > 0");
  }
  for (const Count& count : kCounts) {
    const std::int64_t v = args.*count.field;
    const std::string flag = "--" + std::string(count.name) + " " +
                             std::to_string(v);
    if (v < 1) return reject(flag + " must be >= 1");
    if (v > count.max) {
      return reject(flag + " must be <= " + std::to_string(count.max));
    }
  }
  c.run(args);
  return 0;
}

}  // namespace
}  // namespace pmpr::bench

int main(int argc, char** argv) {
  using pmpr::bench::kCases;
  const std::string first = argc > 1 ? argv[1] : "";
  if (first == "--list" || first == "--help") {
    if (first == "--help") {
      std::printf("Usage: pmpr_bench <case> [flags]; <case> --help lists "
                  "its flags.\n\nCases:\n");
    }
    for (const auto& c : kCases) std::printf("%-18s %s\n", c.name, c.summary);
    return 0;
  }
  for (const auto& c : kCases) {
    if (first != c.name) continue;
    // The case name joins the program name, so --help prints its usage.
    std::string program = "pmpr_bench " + first;
    argv[1] = program.data();
    return pmpr::bench::run(c, argc - 1, argv + 1);
  }
  return pmpr::bench::reject(
      (first.empty() ? "no case given" : "unknown case '" + first + "'") +
      " (see pmpr_bench --list)");
}
