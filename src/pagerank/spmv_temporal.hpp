// SpMV-style postmortem PageRank kernel (paper §4.1/§4.3): one window of a
// multi-window graph at a time. compile_window applies the window's time
// filter to the part's reverse temporal CSR once, keeping each distinct
// in-neighbor with an event in the window; every power iteration then
// pulls over that compiled adjacency, visiting only active rows and one
// entry per distinct neighbor. The compile still reads every stored event
// of the part once per window (compressed parts skip chunks outside it),
// which is why the multi-window partitioning matters (Fig. 8).
#pragma once

#include <span>

#include "pagerank/batch_csr.hpp"
#include "pagerank/pagerank.hpp"
#include "pagerank/window_state.hpp"

namespace pmpr {

/// Runs PageRank for one window over its compiled adjacency (time filter
/// applied once, active-row and dangling-row compaction) built by
/// compile_window. `x` (size = part locals) holds the initial guess on
/// entry and the result on exit; `scratch` matches x. `state` must come
/// from the same compile_window call. Non-null `parallel` runs each sweep
/// as a parallel_for (this is the paper's "application/PR-level"
/// parallelism inside the kernel). Bit-identical results, residuals, and
/// iteration counts to the reference kernel kept as a test oracle
/// (tests/oracle/) when run serially.
PagerankStats pagerank_window_spmv(const WindowState& state,
                                   const CompiledWindowCsr& compiled,
                                   std::span<double> x,
                                   std::span<double> scratch,
                                   const PagerankParams& params,
                                   const par::ForOptions* parallel = nullptr);

}  // namespace pmpr
