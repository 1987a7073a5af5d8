// Storage-kind differential: in-RAM and out-of-core postmortem runs must
// produce bit-identical per-window rank vectors in every parallel mode,
// with partial initialization on, both under the harshest budget (one
// part at a time) and under a budget that holds the whole store (every
// part compressed in RAM, no eviction). Comparisons use exact double
// equality — the chunk-streaming compile reproduces the raw compile's
// structures exactly, and both kinds cut the work list on one leaf grid,
// so the kernels execute the same floating-point sequence.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/postmortem_runner.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace pmpr {
namespace {

struct Scenario {
  TemporalEdgeList events;
  WindowSpec spec;
};

Scenario scenario() {
  Scenario s;
  s.events = test::random_events(77, 50, 3000, 30000);
  s.spec = WindowSpec::cover(0, 30000, 8000, 1500);
  return s;
}

PostmortemConfig base_config(KernelKind kernel, ParallelMode mode) {
  PostmortemConfig cfg;
  cfg.pr.tol = 1e-12;
  cfg.pr.max_iters = 300;
  cfg.kernel = kernel;
  cfg.mode = mode;
  cfg.num_multi_windows = 4;
  cfg.vector_length = 8;
  cfg.validate = true;
  // Partial init chains only inside a leaf. Both storage kinds cut the
  // item list on the same leaf grid, the paged one clipped at part
  // boundaries, where a chain restarts anyway.
  cfg.partial_init = true;
  return cfg;
}

void expect_same_series(const StoreAllSink& a, const StoreAllSink& b,
                        const char* label) {
  ASSERT_EQ(a.num_windows(), b.num_windows()) << label;
  for (std::size_t w = 0; w < a.num_windows(); ++w) {
    ASSERT_EQ(a.window(w), b.window(w)) << label << " window " << w;
  }
}

/// Runs `cfg` in RAM and out of core, at budget 0 and at a budget that
/// holds the whole store, and expects every window's ranks to match.
/// Returns the whole-store run, made with counters on.
RunResult expect_storage_kinds_agree(PostmortemConfig cfg,
                                     const char* label) {
  const Scenario s = scenario();

  StoreAllSink in_ram(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, in_ram, cfg);

  StoreAllSink oocore(s.spec.count);
  cfg.storage = StorageKind::kOutOfCore;
  cfg.memory_budget_bytes = 0;  // harshest paging: one part at a time
  const RunResult result = run_postmortem(s.events, s.spec, oocore, cfg);
  expect_same_series(oocore, in_ram, label);
  EXPECT_GT(result.oocore_store_bytes, 0u) << label;
  EXPECT_GT(result.oocore_raw_bytes, result.oocore_store_bytes) << label;
  EXPECT_GT(result.oocore_resident_peak_bytes, 0u) << label;
  EXPECT_LE(result.oocore_resident_peak_bytes, result.oocore_store_bytes)
      << label;

  // A budget of the whole store: every part stays compressed in RAM.
  obs::set_counters_enabled(true);
  StoreAllSink resident(s.spec.count);
  cfg.memory_budget_bytes = result.oocore_store_bytes;
  const RunResult whole = run_postmortem(s.events, s.spec, resident, cfg);
  expect_same_series(resident, in_ram, label);
  EXPECT_EQ(whole.counters[obs::Counter::kPartsEvicted], 0u) << label;
  EXPECT_EQ(whole.counters[obs::Counter::kPartRefaults], 0u) << label;
  return whole;
}

TEST(StorageDifferential, SpmmPagerankMode) {
  expect_storage_kinds_agree(
      base_config(KernelKind::kSpmm, ParallelMode::kPagerank),
      "spmm/pagerank");
}

TEST(StorageDifferential, SpmvPagerankMode) {
  expect_storage_kinds_agree(
      base_config(KernelKind::kSpmv, ParallelMode::kPagerank),
      "spmv/pagerank");
}

TEST(StorageDifferential, SpmmWindowMode) {
  expect_storage_kinds_agree(
      base_config(KernelKind::kSpmm, ParallelMode::kWindow),
      "spmm/window");
}

TEST(StorageDifferential, SpmvNestedMode) {
  expect_storage_kinds_agree(
      base_config(KernelKind::kSpmv, ParallelMode::kNested),
      "spmv/nested");
}

TEST(StorageDifferential, SpmmNestedMode) {
  expect_storage_kinds_agree(
      base_config(KernelKind::kSpmm, ParallelMode::kNested),
      "spmm/nested");
}

// Leaves that straddle parts: on a 3-thread pool, kSimple grain 4 cuts the
// scenario's 21 windows over 4 parts (SpMV) or its 12 two-lane batches
// (SpMM) into leaves of 4 items that the part sizes do not divide. The
// paged run must cut the in-RAM run's leaves, clipped at part boundaries,
// not cut each part again from its first item.
TEST(StorageDifferential, LeavesStraddlingPartsMatchInWindowAndNestedMode) {
  ASSERT_EQ(scenario().spec.count, 21u);
  par::ThreadPool pool(3);
  for (const ParallelMode mode :
       {ParallelMode::kWindow, ParallelMode::kNested}) {
    for (const KernelKind kernel : {KernelKind::kSpmv, KernelKind::kSpmm}) {
      const std::string label = std::string(to_string(mode)) + "/" +
                                std::string(to_string(kernel));
      PostmortemConfig cfg = base_config(kernel, mode);
      cfg.pool = &pool;
      cfg.partitioner = par::Partitioner::kSimple;
      cfg.grain = 4;
      cfg.vector_length = 2;
      const RunResult whole = expect_storage_kinds_agree(cfg, label.c_str());
      // The chains ran: some window started from its predecessor's ranks.
      EXPECT_GT(whole.counters[obs::Counter::kVerticesReused], 0u) << label;
    }
  }
}

TEST(StorageDifferential, TightBudgetEvictsAndStaysExact) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  cfg.num_multi_windows = 8;

  StoreAllSink in_ram(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, in_ram, cfg);

  obs::set_counters_enabled(true);
  StoreAllSink oocore(s.spec.count);
  cfg.storage = StorageKind::kOutOfCore;
  cfg.memory_budget_bytes = 0;
  const RunResult result = run_postmortem(s.events, s.spec, oocore, cfg);
  expect_same_series(oocore, in_ram, "tight-budget");
  // 8 parts under a one-part budget: the part-major sweep must evict.
  EXPECT_GE(result.counters[obs::Counter::kPartsEvicted], 6u);
}

TEST(StorageDifferential, PrebuiltRejectsOutOfCore) {
  const Scenario s = scenario();
  const MultiWindowSet set = MultiWindowSet::build(s.events, s.spec, 2);
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  cfg.storage = StorageKind::kOutOfCore;
  StoreAllSink sink(s.spec.count);
  EXPECT_THROW(run_postmortem_prebuilt(set, sink, cfg), InvariantError);
}

TEST(StorageDifferential, PagedRunnerEntryPoint) {
  const Scenario s = scenario();
  PostmortemConfig cfg = base_config(KernelKind::kSpmm,
                                     ParallelMode::kPagerank);
  StoreAllSink ref(s.spec.count);
  cfg.storage = StorageKind::kInRam;
  run_postmortem(s.events, s.spec, ref, cfg);

  PagedMultiWindowSet::Options opts;
  opts.num_parts = 4;
  const auto paged = PagedMultiWindowSet::build(s.events, s.spec, opts);
  cfg.storage = StorageKind::kOutOfCore;
  StoreAllSink sink(s.spec.count);
  const RunResult result = run_postmortem_paged(*paged, sink, cfg);
  expect_same_series(sink, ref, "paged-entry");
  EXPECT_EQ(result.oocore_store_bytes, paged->stats().store_bytes);
}

}  // namespace
}  // namespace pmpr
