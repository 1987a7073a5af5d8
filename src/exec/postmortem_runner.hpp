// Postmortem execution model (paper §4): the whole temporal graph is encoded
// once as a MultiWindowSet; PageRank runs over windows with
//   * partial initialization chained across consecutive windows processed by
//     the same thread (§4.2, §4.3.1),
//   * window-level / application-level / nested parallelism on the
//     work-stealing pool (§4.3),
//   * the SpMV or SpMM-inspired kernel (§4.4), one SpMM kernel over the
//     batch-compiled adjacency (pagerank/batch_csr.hpp). A batch holds up
//     to vector_length adjacent windows of one part (one window for
//     kSpmv), and each batch after the part's first seeds every lane from
//     the last window of the batch before it.
#pragma once

#include "exec/config.hpp"
#include "exec/results.hpp"
#include "graph/edge_list.hpp"
#include "graph/multi_window.hpp"
#include "graph/paged_multi_window.hpp"

namespace pmpr {

/// Builds the multi-window representation (timed as build_seconds) and runs
/// the analysis. `events` must be time-sorted. config.storage picks the
/// representation: raw in-RAM, or the mmap-backed out-of-core store paged
/// under config.memory_budget_bytes (chunk-streaming compile; a budget that
/// holds the store keeps every compressed part resident). Ranks are
/// bit-identical across the two in every mode: both cut the work list on
/// one leaf grid, so partial initialization chains alike (DESIGN.md §6).
RunResult run_postmortem(const TemporalEdgeList& events,
                         const WindowSpec& spec, ResultSink& sink,
                         const PostmortemConfig& config);

/// Runs on an already-built representation (build_seconds = 0). Benchmarks
/// use this to sweep execution parameters without re-paying construction.
/// Rejects StorageKind::kOutOfCore — use run_postmortem_paged for that.
RunResult run_postmortem_prebuilt(const MultiWindowSet& set, ResultSink& sink,
                                  const PostmortemConfig& config);

/// Runs on an already-built paged store. Parts are processed part-major:
/// each part is pinned (PagedMultiWindowSet::acquire) while its windows /
/// batches compute — possibly in parallel — then released to the LRU.
/// Fills the oocore_* fields of RunResult from the store's PagingStats.
RunResult run_postmortem_paged(PagedMultiWindowSet& paged, ResultSink& sink,
                               const PostmortemConfig& config);

}  // namespace pmpr
