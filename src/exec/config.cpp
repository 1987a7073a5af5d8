#include "exec/config.hpp"

#include <algorithm>

#include "graph/window_stats.hpp"
#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace pmpr {

std::string_view to_string(ParallelMode m) {
  switch (m) {
    case ParallelMode::kWindow:
      return "window";
    case ParallelMode::kPagerank:
      return "pagerank";
    case ParallelMode::kNested:
      return "nested";
  }
  return "?";
}

std::string_view to_string(KernelKind k) {
  return k == KernelKind::kSpmv ? "spmv" : "spmm";
}

std::string_view to_string(StorageKind s) {
  switch (s) {
    case StorageKind::kInRam:
      return "in-ram";
    case StorageKind::kOutOfCore:
      return "out-of-core";
  }
  return "?";
}

StorageKind parse_storage_kind(std::string_view name) {
  if (name == "in-ram" || name == "ram") return StorageKind::kInRam;
  if (name == "out-of-core" || name == "oocore") return StorageKind::kOutOfCore;
  // A typo must not fall back: a user who asked for out-of-core and
  // silently got in-RAM OOMs instead of paging.
  PMPR_CHECK_MSG(false, "unknown storage kind '"
                            << name
                            << "' (expected in-ram, out-of-core)");
}

WorkloadProfile WorkloadProfile::from_window_edges(
    std::span<const std::size_t> window_edge_counts) {
  WorkloadProfile p;
  p.num_windows = window_edge_counts.size();
  std::size_t total = 0;
  std::size_t top1 = 0;
  std::size_t top2 = 0;
  for (const std::size_t e : window_edge_counts) {
    total += e;
    if (e >= top1) {
      top2 = top1;
      top1 = e;
    } else if (e > top2) {
      top2 = e;
    }
  }
  p.top2_share =
      total > 0 ? static_cast<double>(top1 + top2) / static_cast<double>(total)
                : 0.0;
  return p;
}

PostmortemConfig suggest_config(const WorkloadProfile& profile,
                                std::size_t num_threads) {
  PostmortemConfig cfg;
  cfg.kernel = KernelKind::kSpmm;  // "SpMM is never a bad choice"
  cfg.partitioner = par::Partitioner::kAuto;
  cfg.grain = 4;  // "granularity size under 4 usually provides good results"
  cfg.partial_init = true;
  cfg.vector_length = 16;

  // Application-level parallelization when a couple of windows carry most
  // of the load or there are too few windows to feed the machine;
  // otherwise nested.
  const bool dominated = profile.top2_share > 0.5;
  const bool few_windows = profile.num_windows < 2 * num_threads;
  cfg.mode = (dominated || few_windows) ? ParallelMode::kPagerank
                                        : ParallelMode::kNested;

  // Keep at least a handful of windows per multi-window graph.
  cfg.num_multi_windows =
      std::max<std::size_t>(1, std::min<std::size_t>(6, profile.num_windows));
  return cfg;
}

PostmortemConfig suggest_config_for(const TemporalEdgeList& events,
                                    const WindowSpec& spec,
                                    std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = par::ThreadPool::global().num_threads();
  }
  const std::vector<std::size_t> counts = window_event_counts(events, spec);
  return suggest_config(WorkloadProfile::from_window_edges(counts),
                        num_threads);
}

}  // namespace pmpr
