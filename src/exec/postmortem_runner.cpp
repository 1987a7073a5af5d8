#include "exec/postmortem_runner.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "graph/memory_budget.hpp"
#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/memory.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "pagerank/partial_init.hpp"
#include "pagerank/spmm_temporal.hpp"
#include "pagerank/spmv_temporal.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace pmpr {

namespace {

/// Per-execution-context scratch. Leased per leaf chunk from the driver's
/// free list, so later chunks reuse its buffers; a thread that runs a
/// stolen chunk inside a nested wait holds a second lease. Partial
/// initialization (§4.3.1) chains only between consecutive items of one
/// leased chunk: the lease drops the carry, so whether an item starts from
/// its predecessor never depends on which chunk the state served before.
struct ThreadState {
  WindowState ws;
  SpmmWindowState spmm_ws;
  CompiledWindowCsr compiled_win;
  CompiledBatchCsr compiled_batch;
  /// Chunk-decode buffers for compressed parts, reused across the serial
  /// compile passes (the parallel passes allocate per callback).
  io::DecodeScratch decode_scratch;
  std::vector<double> x;
  std::vector<double> scratch;
  std::vector<double> lane_buf;

  // Carry for partial initialization: result of the previous item this
  // state processed in the current lease.
  std::vector<double> prev_x;
  std::vector<std::uint8_t> prev_active;      // SpMV
  std::vector<std::uint64_t> prev_mask;       // SpMM, n * prev_words
  std::size_t prev_lanes = 0;                 // SpMM
  std::size_t prev_words = 1;                 // SpMM mask words
  std::size_t carry_part = SIZE_MAX;
  std::size_t carry_index = SIZE_MAX;
};

struct WorkItem {
  std::size_t part;
  std::size_t index;  // window-in-part (SpMV) or batch-in-part (SpMM)
};

/// SpMM batch geometry for one part (§4.4): W windows are divided into
/// `lanes` regions of `region` consecutive windows; batch j takes the j-th
/// window of every region, so batch j+1 holds the successors of batch j.
struct PartBatching {
  std::size_t lanes_max = 0;
  std::size_t region = 0;
  std::size_t num_batches = 0;
};

PartBatching batching_for(std::size_t num_windows,
                          std::size_t vector_length) {
  // vector_length is clamped to the [1, kMaxSpmmLanes] the kernels handle.
  PartBatching b;
  b.lanes_max = std::min(std::clamp<std::size_t>(vector_length, 1,
                                                 kMaxSpmmLanes),
                         num_windows);
  b.region = (num_windows + b.lanes_max - 1) / b.lanes_max;
  b.num_batches = b.region;
  return b;
}

std::size_t lanes_of_batch(const PartBatching& b, std::size_t num_windows,
                           std::size_t j) {
  // Lane r exists iff r*region + j < num_windows.
  if (j >= num_windows) return 0;
  return (num_windows - j - 1) / b.region + 1;
}

/// Eq. 4 for one SpMM lane over lane-interleaved storage. Masks are
/// multi-word: prev_mask is n * prev_words, cur_mask n * cur_words.
void spmm_partial_init_lane(std::span<const double> prev_x,
                            std::size_t prev_lanes, std::size_t prev_words,
                            std::size_t kp,
                            std::span<const std::uint64_t> prev_mask,
                            std::span<double> cur_x, std::size_t cur_lanes,
                            std::size_t cur_words, std::size_t k,
                            std::span<const std::uint64_t> cur_mask,
                            std::size_t cur_num_active) {
  const std::size_t n = cur_mask.size() / cur_words;
  const auto prev_has = [&](std::size_t v) {
    return mask_test(prev_mask.data() + v * prev_words, kp);
  };
  const auto cur_has = [&](std::size_t v) {
    return mask_test(cur_mask.data() + v * cur_words, k);
  };
  if (cur_num_active == 0) {
    for (std::size_t v = 0; v < n; ++v) cur_x[v * cur_lanes + k] = 0.0;
    return;
  }
  std::size_t shared = 0;
  double mass = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (prev_has(v) && cur_has(v)) {
      ++shared;
      mass += prev_x[v * prev_lanes + kp];
    }
  }
  const double uniform = 1.0 / static_cast<double>(cur_num_active);
  if (shared == 0 || mass <= 0.0) {
    for (std::size_t v = 0; v < n; ++v) {
      cur_x[v * cur_lanes + k] = cur_has(v) ? uniform : 0.0;
    }
    obs::count(obs::Counter::kVerticesReseeded, cur_num_active);
    return;
  }
  obs::count(obs::Counter::kVerticesReused, shared);
  obs::count(obs::Counter::kVerticesReseeded, cur_num_active - shared);
  const double scale =
      (static_cast<double>(shared) / static_cast<double>(cur_num_active)) /
      mass;
  for (std::size_t v = 0; v < n; ++v) {
    if (!cur_has(v)) {
      cur_x[v * cur_lanes + k] = 0.0;
    } else if (prev_has(v)) {
      cur_x[v * cur_lanes + k] = prev_x[v * prev_lanes + kp] * scale;
    } else {
      cur_x[v * cur_lanes + k] = uniform;
    }
  }
}

class PostmortemDriver {
 public:
  /// Exactly one of `set` / `paged` is non-null. The paged form processes
  /// the work list part-major, holding a pin lease on one part at a time.
  PostmortemDriver(const MultiWindowSet* set, PagedMultiWindowSet* paged,
                   ResultSink& sink, const PostmortemConfig& cfg,
                   RunResult& result)
      : set_(set),
        paged_(paged),
        spec_(set != nullptr ? set->spec() : paged->spec()),
        sink_(sink),
        cfg_(cfg),
        result_(result) {
    for_opts_ = par::ForOptions{cfg.partitioner, cfg.grain, cfg.pool};
    kernel_par_ =
        cfg.mode == ParallelMode::kWindow ? nullptr : &for_opts_;

    // One work-item list spanning all parts, ordered by part then index, so
    // consecutive items chain partial initialization and each part's items
    // are contiguous.
    const std::size_t num_parts =
        set != nullptr ? set->num_parts() : paged->num_parts();
    for (std::size_t p = 0; p < num_parts; ++p) {
      const MultiWindowGraph& part =
          set != nullptr ? set->part(p) : paged->part_meta(p);
      const std::size_t count =
          cfg.kernel == KernelKind::kSpmv
              ? part.num_windows
              : batching_for(part.num_windows, cfg.vector_length).num_batches;
      for (std::size_t i = 0; i < count; ++i) items_.push_back({p, i});
    }
    // The leaf grid: kPagerank runs every item in order as one chain;
    // window and nested mode cut the whole list where parallel_for_range
    // would, whichever storage kind serves it.
    leaf_width_ = cfg.mode == ParallelMode::kPagerank || items_.empty()
                      ? std::max<std::size_t>(items_.size(), 1)
                      : par::chunk_width(for_opts_, items_.size());
  }

  void run() {
    result_.num_windows = spec_.count;
    result_.iterations_per_window.assign(spec_.count, 0);
    result_.final_residuals.assign(spec_.count, 0.0);
    result_.residual_trajectories.assign(spec_.count, {});

    if (paged_ == nullptr) {
      run_items(0, items_.size());
    } else {
      // Part-major: one pinned part at a time, so at most one part (plus
      // LRU leftovers under the budget) is resident.
      for (std::size_t lo = 0, hi = 0; lo < items_.size(); lo = hi) {
        while (hi < items_.size() && items_[hi].part == items_[lo].part) ++hi;
        PagedMultiWindowSet::Lease lease = paged_->acquire(items_[lo].part);
        // Published to the workers by run_items' fork.
        paged_part_ = &lease.part();
        run_items(lo, hi);
        paged_part_ = nullptr;
      }
    }

    for (const int iters : result_.iterations_per_window) {
      result_.total_iterations += static_cast<std::uint64_t>(iters);
    }
  }

 private:
  /// RAII acquisition of an idle state from the driver's free list (a new
  /// one when the list is empty). Taking a lease drops the state's
  /// partial-init carry.
  struct StateLease {
    explicit StateLease(PostmortemDriver& owner) : driver(owner) {
      {
        LockGuard lock(driver.idle_mu_);
        if (!driver.idle_states_.empty()) {
          state_holder = std::move(driver.idle_states_.back());
          driver.idle_states_.pop_back();
        }
      }
      if (state_holder == nullptr) {
        state_holder = std::make_unique<ThreadState>();
      }
      state = state_holder.get();
      state->carry_part = SIZE_MAX;
    }
    ~StateLease() {
      LockGuard lock(driver.idle_mu_);
      driver.idle_states_.push_back(std::move(state_holder));
    }
    PostmortemDriver& driver;
    std::unique_ptr<ThreadState> state_holder;
    ThreadState* state = nullptr;
  };

  /// Runs every leaf [c·w, (c+1)·w) of the grid that meets [lo, hi),
  /// clipped to it, with one state lease per leaf. A partial-init chain
  /// already restarts at a part's first item, so clipping at part
  /// boundaries changes no rank: in-RAM and paged runs are bit-identical.
  void run_items(std::size_t lo, std::size_t hi) {
    const std::size_t w = leaf_width_;
    par::parallel_for(
        lo / w, (hi + w - 1) / w,
        par::ForOptions{par::Partitioner::kSimple, 1, cfg_.pool},
        [this, lo, hi, w](std::size_t c) {
          StateLease lease(*this);
          const std::size_t end = std::min(hi, (c + 1) * w);
          for (std::size_t i = std::max(lo, c * w); i < end; ++i) {
            process(*lease.state, items_[i]);
          }
        });
  }

  /// The part an item reads: the pinned one under paged execution (the
  /// paged store's slot graphs are only mapped while leased), the set's
  /// otherwise.
  [[nodiscard]] const MultiWindowGraph& part_of(const WorkItem& item) const {
    return paged_ != nullptr ? *paged_part_ : set_->part(item.part);
  }

  void process(ThreadState& st, const WorkItem& item) {
    if (cfg_.kernel == KernelKind::kSpmv) {
      process_spmv(st, item);
    } else {
      process_spmm(st, item);
    }
  }

  void process_spmv(ThreadState& st, const WorkItem& item) {
    const MultiWindowGraph& part = part_of(item);
    const std::size_t w = part.first_window + item.index;
    const std::size_t n = part.num_local();

    st.x.resize(n);
    st.scratch.resize(n);
    {
      PMPR_PHASE(obs::Phase::kBuild, "window.build", w);
      compile_window(part, spec_.start(w), spec_.end(w), st.ws,
                     st.compiled_win, kernel_par_, &st.decode_scratch);
    }

    const bool partial = cfg_.partial_init && item.index > 0 &&
                         st.carry_part == item.part &&
                         st.carry_index == item.index - 1 &&
                         st.prev_x.size() == n;
    {
      PMPR_PHASE(obs::Phase::kInit, "window.init", w);
      if (partial) {
        partial_init(st.prev_x, st.prev_active, st.ws.active, st.ws.num_active,
                     st.x);
      } else {
        full_init(st.ws.active, st.ws.num_active, st.x);
      }
    }

    PagerankStats stats;
    {
      PMPR_PHASE(obs::Phase::kIterate, "window.iterate", w);
      stats = pagerank_window_spmv(st.ws, st.compiled_win, st.x, st.scratch,
                                   cfg_.pr, kernel_par_);
    }
    result_.iterations_per_window[w] = stats.iterations;
    result_.final_residuals[w] = stats.final_residual;
    result_.residual_trajectories[w] = std::move(stats.residuals);
    obs::count(obs::Counter::kWindowsProcessed);
    obs::fr_record(obs::FrEvent::kWindowDone, nullptr, w, stats.iterations);
    {
      PMPR_PHASE(obs::Phase::kSink, "window.sink", w);
      sink_.consume_mapped(w, part.local_to_global, st.x);
      // Read-amplification denominator: rank bytes this window delivered.
      obs::count(obs::Counter::kWindowOutputBytes, n * sizeof(double));
    }

    st.prev_x.swap(st.x);
    st.prev_active.swap(st.ws.active);
    st.carry_part = item.part;
    st.carry_index = item.index;
  }

  void process_spmm(ThreadState& st, const WorkItem& item) {
    const MultiWindowGraph& part = part_of(item);
    const PartBatching geo = batching_for(part.num_windows, cfg_.vector_length);
    const std::size_t j = item.index;
    const std::size_t lanes = lanes_of_batch(geo, part.num_windows, j);
    assert(lanes >= 1);
    const std::size_t n = part.num_local();

    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = part.first_window + j;
    batch.window_stride = geo.region;

    st.x.resize(n * lanes);
    st.scratch.resize(n * lanes);
    {
      PMPR_PHASE(obs::Phase::kBuild, "batch.build", batch.first_window);
      compile_spmm_batch(part, spec_, batch, st.spmm_ws, st.compiled_batch,
                         kernel_par_, &st.decode_scratch);
    }

    const bool partial = cfg_.partial_init && j > 0 &&
                         st.carry_part == item.part &&
                         st.carry_index == j - 1 &&
                         st.prev_lanes >= lanes &&
                         st.prev_x.size() == n * st.prev_lanes;
    {
      PMPR_PHASE(obs::Phase::kInit, "batch.init", batch.first_window);
      const std::size_t words = st.spmm_ws.mask_words;
      for (std::size_t k = 0; k < lanes; ++k) {
        if (partial) {
          // Lane k's window is the successor of the previous batch's lane k.
          spmm_partial_init_lane(st.prev_x, st.prev_lanes, st.prev_words, k,
                                 st.prev_mask, st.x, lanes, words, k,
                                 st.spmm_ws.active_mask,
                                 st.spmm_ws.num_active[k]);
        } else {
          const double uniform =
              st.spmm_ws.num_active[k] > 0
                  ? 1.0 / static_cast<double>(st.spmm_ws.num_active[k])
                  : 0.0;
          for (std::size_t v = 0; v < n; ++v) {
            st.x[v * lanes + k] =
                mask_test(st.spmm_ws.mask_of(v), k) ? uniform : 0.0;
          }
          obs::count(obs::Counter::kVerticesReseeded,
                     st.spmm_ws.num_active[k]);
        }
      }
    }

    SpmmStats stats;
    {
      PMPR_PHASE(obs::Phase::kIterate, "batch.iterate", batch.first_window);
      stats = pagerank_spmm(st.spmm_ws, st.compiled_batch, st.x, st.scratch,
                            cfg_.pr, kernel_par_, cfg_.simd);
    }
    obs::count(obs::Counter::kWindowsProcessed, lanes);
    obs::fr_record(obs::FrEvent::kWindowDone, nullptr, batch.first_window,
                   lanes);

    PMPR_PHASE(obs::Phase::kSink, "batch.sink", batch.first_window);
    st.lane_buf.resize(n);
    for (std::size_t k = 0; k < lanes; ++k) {
      const std::size_t w = batch.window_of_lane(k);
      for (std::size_t v = 0; v < n; ++v) {
        st.lane_buf[v] = st.x[v * lanes + k];
      }
      result_.iterations_per_window[w] = stats.lane_stats[k].iterations;
      result_.final_residuals[w] = stats.lane_stats[k].final_residual;
      result_.residual_trajectories[w] = std::move(stats.lane_stats[k].residuals);
      sink_.consume_mapped(w, part.local_to_global, st.lane_buf);
    }
    // Read-amplification denominator: one rank vector per lane's window.
    obs::count(obs::Counter::kWindowOutputBytes, lanes * n * sizeof(double));

    st.prev_x.swap(st.x);
    st.prev_mask = st.spmm_ws.active_mask;  // copy; spmm_ws reused next item
    st.prev_lanes = lanes;
    st.prev_words = st.spmm_ws.mask_words;
    st.carry_part = item.part;
    st.carry_index = j;
  }

  const MultiWindowSet* set_ = nullptr;
  PagedMultiWindowSet* paged_ = nullptr;
  /// The part the paged sweep has pinned. Written between parts only
  /// (before the fork / after the join), read by the workers.
  const MultiWindowGraph* paged_part_ = nullptr;
  const WindowSpec spec_;
  ResultSink& sink_;
  const PostmortemConfig& cfg_;
  RunResult& result_;
  par::ForOptions for_opts_;
  const par::ForOptions* kernel_par_ = nullptr;
  std::vector<WorkItem> items_;
  /// Items per leaf of the grid every run cuts items_ on.
  std::size_t leaf_width_ = 1;
  /// States no lease holds. Every thread that runs this run's chunks (the
  /// pool's workers, the caller, and any thread whose wait on the pool
  /// picks one up) leases from here, hence the lock.
  Mutex idle_mu_;
  std::vector<std::unique_ptr<ThreadState>> idle_states_
      PMPR_GUARDED_BY(idle_mu_);
};

/// Folds the run's memory accounting into `result` (which must already
/// hold its counter delta). alloc/free tallies become run deltas against
/// `before`; live/peak stay the process watermarks at run end — watermarks
/// have no meaningful delta. peak_memory_bytes prefers the measured
/// tagged-charge watermark over the model estimate when accounting was on;
/// the estimate always survives in peak_memory_estimate_bytes so drift
/// between the two stays reportable.
void finish_memory_accounting(const obs::MemorySnapshot& before,
                              std::size_t estimate_bytes, RunResult& result) {
  obs::MemorySnapshot mem = obs::memory_snapshot();
  for (std::size_t i = 0; i < obs::kNumMemTags; ++i) {
    // Monotone tallies: never smaller than at run start unless a test
    // reset the registry mid-run, hence the clamp.
    mem.tags[i].alloc_bytes -=
        std::min(mem.tags[i].alloc_bytes, before.tags[i].alloc_bytes);
    mem.tags[i].free_bytes -=
        std::min(mem.tags[i].free_bytes, before.tags[i].free_bytes);
  }
  result.memory = mem;
  result.peak_memory_estimate_bytes = estimate_bytes;
  result.peak_memory_bytes =
      obs::memory_accounting_enabled() && mem.total_peak_bytes > 0
          ? static_cast<std::size_t>(mem.total_peak_bytes)
          : estimate_bytes;
  const std::uint64_t decoded = result.counters[obs::Counter::kBytesDecoded];
  const std::uint64_t delivered =
      result.counters[obs::Counter::kWindowOutputBytes];
  if (decoded > 0 && delivered > 0) {
    result.read_amplification =
        static_cast<double>(decoded) / static_cast<double>(delivered);
  }
}

}  // namespace

RunResult run_postmortem_prebuilt(const MultiWindowSet& set, ResultSink& sink,
                                  const PostmortemConfig& config) {
  PMPR_CHECK_MSG(config.storage != StorageKind::kOutOfCore,
                 "run_postmortem_prebuilt cannot page; use "
                 "run_postmortem_paged or run_postmortem with "
                 "StorageKind::kOutOfCore");
  if (config.validate) set.validate();
  RunResult result;
  // Resolve up front: a forced-but-unsupported simd mode fails the run
  // here, before any work, instead of deep inside the first batch.
  result.simd_isa = std::string(to_string(resolve_simd(config.simd)));
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  const obs::MemorySnapshot mem_before = obs::memory_snapshot();
  Timer timer;
  {
    PMPR_TRACE_SPAN("postmortem.run");
    PostmortemDriver driver(&set, nullptr, sink, config, result);
    driver.run();
  }
  result.compute_seconds = timer.seconds();
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  const std::size_t kernel_contexts =
      config.mode == ParallelMode::kPagerank
          ? 1
          : (config.pool != nullptr ? config.pool->num_threads()
                                    : par::ThreadPool::global().num_threads()) +
                1;
  const std::size_t vlen =
      config.kernel == KernelKind::kSpmm ? config.vector_length : 1;
  const MemoryEstimate est = estimate_memory(set, vlen);
  result.representation_bytes = est.representation_bytes;
  finish_memory_accounting(mem_before, est.peak_bytes(kernel_contexts),
                           result);
  return result;
}

RunResult run_postmortem_paged(PagedMultiWindowSet& paged, ResultSink& sink,
                               const PostmortemConfig& config) {
  if (config.validate) {
    // Part at a time, bounded by the budget like any other access.
    for (std::size_t p = 0; p < paged.num_parts(); ++p) {
      paged.acquire(p).part().validate();
    }
  }
  RunResult result;
  result.simd_isa = std::string(to_string(resolve_simd(config.simd)));
  const obs::CounterSnapshot before = obs::counters_snapshot();
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();
  const obs::MemorySnapshot mem_before = obs::memory_snapshot();
  Timer timer;
  {
    PMPR_TRACE_SPAN("postmortem.run_paged");
    PostmortemDriver driver(nullptr, &paged, sink, config, result);
    driver.run();
  }
  result.compute_seconds = timer.seconds();
  // Publish the store's paging activity as counters before snapshotting so
  // the run's delta includes them.
  const PagingStats ps = paged.stats();
  obs::count(obs::Counter::kPartsEvicted, ps.parts_evicted);
  obs::count(obs::Counter::kPartRefaults, ps.part_refaults);
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  result.representation_bytes = ps.store_bytes;
  result.oocore_resident_peak_bytes = ps.peak_resident_bytes;
  result.oocore_store_bytes = ps.store_bytes;
  result.oocore_raw_bytes = ps.raw_bytes;
  result.oocore_measured_resident_peak_bytes =
      ps.measured_resident_peak_bytes;
  // For paged runs the fallback "estimate" is itself a paging measurement:
  // charged payload peak plus the always-resident vertex maps. The tagged
  // watermark (when accounting is on) additionally sees compiled kernels
  // and decode scratch, so the two legitimately diverge.
  std::size_t meta_bytes = 0;
  for (std::size_t p = 0; p < paged.num_parts(); ++p) {
    meta_bytes +=
        paged.part_meta(p).local_to_global.size() * sizeof(VertexId);
  }
  finish_memory_accounting(mem_before, ps.peak_resident_bytes + meta_bytes,
                           result);
  return result;
}

RunResult run_postmortem(const TemporalEdgeList& events,
                         const WindowSpec& spec, ResultSink& sink,
                         const PostmortemConfig& config) {
  Timer build_timer;
  double build_seconds = 0.0;
  const obs::HistogramSnapshot hist_before = obs::histograms_snapshot();

  if (config.storage == StorageKind::kOutOfCore) {
    std::unique_ptr<PagedMultiWindowSet> paged;
    {
      PMPR_PHASE(obs::Phase::kBuild, "postmortem.build_paged_store", 0);
      PagedMultiWindowSet::Options opts;
      opts.num_parts = config.num_multi_windows;
      opts.policy = config.partition_policy;
      opts.budget_bytes = config.memory_budget_bytes;
      opts.spill_path = config.spill_path;
      paged = PagedMultiWindowSet::build(events, spec, opts);
      build_seconds = build_timer.seconds();
    }
    RunResult result = run_postmortem_paged(*paged, sink, config);
    result.build_seconds = build_seconds;
    result.histograms = obs::histograms_snapshot().delta_since(hist_before);
    return result;
  }

  MultiWindowSet set = [&] {
    PMPR_PHASE(obs::Phase::kBuild, "postmortem.build_representation", 0);
    MultiWindowSet s = MultiWindowSet::build(
        events, spec, config.num_multi_windows, config.partition_policy);
    build_seconds = build_timer.seconds();
    return s;
  }();

  RunResult result = run_postmortem_prebuilt(set, sink, config);
  result.build_seconds = build_seconds;
  // Re-delta from before the representation build so its kBuild recording
  // is attributed to this run too (prebuilt only saw its own interval).
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  return result;
}

}  // namespace pmpr
