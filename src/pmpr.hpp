// Umbrella header for the pmpr library — postmortem computation of PageRank
// on temporal graphs (reproduction of Hossain & Saule, ICPP 2022).
//
// Typical use:
//
//   #include "pmpr.hpp"
//
//   pmpr::TemporalEdgeList events = pmpr::TemporalEdgeList::load_text(path);
//   events.sort_by_time();
//   auto spec = pmpr::WindowSpec::cover(events.min_time(), events.max_time(),
//                                       /*delta=*/90 * pmpr::duration::kDay,
//                                       /*sw=*/pmpr::duration::kDay);
//   pmpr::StoreAllSink sink(spec.count);
//   pmpr::PostmortemConfig cfg;  // or pmpr::suggest_config(...)
//   pmpr::RunResult r = pmpr::run_postmortem(events, spec, sink, cfg);
#pragma once

#include "exec/config.hpp"          // IWYU pragma: export
#include "exec/metrics.hpp"         // IWYU pragma: export
#include "exec/offline_runner.hpp"  // IWYU pragma: export
#include "exec/postmortem_runner.hpp"  // IWYU pragma: export
#include "exec/results.hpp"            // IWYU pragma: export
#include "exec/streaming_runner.hpp"   // IWYU pragma: export
#include "gen/surrogates.hpp"          // IWYU pragma: export
#include "graph/csr.hpp"               // IWYU pragma: export
#include "graph/edge_list.hpp"         // IWYU pragma: export
#include "graph/multi_window.hpp"      // IWYU pragma: export
#include "graph/paged_multi_window.hpp"  // IWYU pragma: export
#include "graph/temporal_csr.hpp"      // IWYU pragma: export
#include "graph/types.hpp"             // IWYU pragma: export
#include "graph/window.hpp"            // IWYU pragma: export
#include "io/compressed_csr.hpp"       // IWYU pragma: export
#include "io/mmap_file.hpp"            // IWYU pragma: export
#include "obs/counters.hpp"            // IWYU pragma: export
#include "obs/crash.hpp"               // IWYU pragma: export
#include "obs/flightrec.hpp"           // IWYU pragma: export
#include "obs/histogram.hpp"           // IWYU pragma: export
#include "obs/memory.hpp"              // IWYU pragma: export
#include "obs/phase.hpp"               // IWYU pragma: export
#include "obs/sampler.hpp"             // IWYU pragma: export
#include "obs/slots.hpp"               // IWYU pragma: export
#include "obs/trace.hpp"               // IWYU pragma: export
#include "obs/watchdog.hpp"            // IWYU pragma: export
#include "pagerank/pagerank.hpp"       // IWYU pragma: export
#include "par/parallel_for.hpp"        // IWYU pragma: export
#include "util/options.hpp"            // IWYU pragma: export
#include "util/stats.hpp"              // IWYU pragma: export
#include "util/table.hpp"              // IWYU pragma: export
#include "util/timer.hpp"              // IWYU pragma: export
