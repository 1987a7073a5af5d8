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
/// SpMM batches are cut from the run's window-run indexes, so a state
/// holds no copy of a part.
struct ThreadState {
  WindowState ws;
  SpmmWindowState spmm_ws;
  CompiledWindowCsr compiled_win;
  CompiledBatchCsr compiled_batch;
  /// Chunk-decode buffers for compile_window on compressed parts, reused
  /// across its serial passes (the parallel passes allocate per callback).
  io::DecodeScratch decode_scratch;
  std::vector<double> x;
  std::vector<double> scratch;
  std::vector<double> lane_buf;

  // Carry for partial initialization: the last window the previous item
  // this state processed in the current lease computed, the one window
  // Eq. 4 seeds from (SpMM: the previous batch's last lane).
  std::vector<double> prev_x;                 // n
  std::vector<std::uint8_t> prev_active;      // SpMV
  std::vector<std::uint64_t> prev_mask;       // SpMM, bit 0 per vertex
  std::size_t carry_part = SIZE_MAX;
  std::size_t carry_index = SIZE_MAX;
};

struct WorkItem {
  std::size_t part;
  std::size_t index;  // window-in-part (SpMV) or batch-in-part (SpMM)
};

/// Lanes per SpMM batch (§4.4): vector_length clamped to the
/// [1, kMaxSpmmLanes] the kernels handle. Batch j of a part with W windows
/// holds the adjacent windows [j·L, min(j·L + L, W)), so each batch but
/// the first partial-initializes from the last window of the batch before
/// it, 1..L windows back.
std::size_t batch_width(std::size_t vector_length) {
  return std::clamp<std::size_t>(vector_length, 1, kMaxSpmmLanes);
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
      const std::size_t width = batch_width(cfg.vector_length);
      const std::size_t count = cfg.kernel == KernelKind::kSpmv
                                    ? part.num_windows
                                    : (part.num_windows + width - 1) / width;
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
    const bool spmm = cfg_.kernel == KernelKind::kSpmm;

    if (paged_ == nullptr) {
      if (spmm) {
        // Every part's index before the fork, one part per task.
        indexes_.resize(set_->num_parts());
        par::parallel_for(
            0, set_->num_parts(),
            par::ForOptions{par::Partitioner::kSimple, 1, cfg_.pool},
            [this](std::size_t p) {
              index_part(set_->part(p), p, indexes_[p], nullptr);
            });
      }
      run_items(0, items_.size());
    } else {
      // Part-major: one pinned part at a time, so at most one part (plus
      // LRU leftovers under the budget) is resident. The pinned part's
      // index reuses one buffer, reserved for the largest part.
      if (spmm) {
        std::size_t most = 0;
        for (std::size_t p = 0; p < paged_->num_parts(); ++p) {
          most = std::max(most, paged_->part_meta(p).num_events);
        }
        paged_index_.runs.reserve(most);
      }
      io::DecodeScratch decode;
      for (std::size_t lo = 0, hi = 0; lo < items_.size(); lo = hi) {
        while (hi < items_.size() && items_[hi].part == items_[lo].part) ++hi;
        const std::size_t p = items_[lo].part;
        PagedMultiWindowSet::Lease lease = paged_->acquire(p);
        // Published to the workers by run_items' fork.
        paged_part_ = &lease.part();
        if (spmm) index_part(*paged_part_, p, paged_index_, &decode);
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

  /// The window-run index of the part an item reads, over all its windows.
  [[nodiscard]] const WindowRunIndex& index_of(const WorkItem& item) const {
    return paged_ != nullptr ? paged_index_ : indexes_[item.part];
  }

  /// Indexes all of part p's windows into `out`: one walk over its rows,
  /// one decode per chunk when the part is paged. A phase of its own, so
  /// the compile phase counts it with the batches cut from it.
  void index_part(const MultiWindowGraph& part, std::size_t p,
                  WindowRunIndex& out, io::DecodeScratch* decode) const {
    PMPR_PHASE(obs::Phase::kBuild, "part.compile", p);
    build_window_run_index(part, spec_, part.first_window, part.num_windows,
                           out, decode);
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
    const std::size_t width = batch_width(cfg_.vector_length);
    const std::size_t j = item.index;
    assert(j * width < part.num_windows);
    const std::size_t lanes = std::min(width, part.num_windows - j * width);
    const std::size_t n = part.num_local();

    SpmmBatch batch;
    batch.lanes = lanes;
    batch.first_window = part.first_window + j * width;

    st.x.resize(n * lanes);
    st.scratch.resize(n * lanes);
    {
      PMPR_PHASE(obs::Phase::kBuild, "batch.build", batch.first_window);
      compile_spmm_batch(index_of(item), batch, st.spmm_ws, st.compiled_batch,
                         kernel_par_);
    }

    const bool partial = cfg_.partial_init && j > 0 &&
                         st.carry_part == item.part &&
                         st.carry_index == j - 1 && st.prev_x.size() == n;
    {
      PMPR_PHASE(obs::Phase::kInit, "batch.init", batch.first_window);
      if (partial) {
        // Every lane starts from the previous batch's last window, carried
        // as a one-lane batch.
        spmm_partial_init(st.prev_x, 1, st.prev_mask, st.spmm_ws.active_mask,
                          st.spmm_ws.num_active, st.x);
      } else {
        spmm_full_init(st.spmm_ws.active_mask, st.spmm_ws.num_active, st.x);
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

    // The carry is the last lane alone, the only one the next batch's
    // partial init reads: lane_buf holds it after the sink loop.
    st.prev_x.swap(st.lane_buf);
    st.prev_mask.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      st.prev_mask[v] = st.spmm_ws.active_mask[v] >> (lanes - 1) & 1;
    }
    st.carry_part = item.part;
    st.carry_index = j;
  }

  const MultiWindowSet* set_ = nullptr;
  PagedMultiWindowSet* paged_ = nullptr;
  /// The part the paged sweep has pinned and, for SpMM, its index. Written
  /// between parts only (before the fork / after the join), read by the
  /// workers.
  const MultiWindowGraph* paged_part_ = nullptr;
  WindowRunIndex paged_index_;
  /// In RAM, every part's index (SpMM), built before the items run.
  std::vector<WindowRunIndex> indexes_;
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

/// Execution contexts that can each hold a working set at once: one chain
/// in kPagerank mode, the pool's workers and the caller otherwise.
std::size_t kernel_contexts(const PostmortemConfig& config) {
  if (config.mode == ParallelMode::kPagerank) return 1;
  return (config.pool != nullptr ? config.pool->num_threads()
                                 : par::ThreadPool::global().num_threads()) +
         1;
}

/// Lanes a batch holds at most (batch_width's clamp); 1 for SpMV.
std::size_t working_lanes(const PostmortemConfig& config) {
  return config.kernel == KernelKind::kSpmm ? batch_width(config.vector_length)
                                            : 1;
}

/// Fills `result`'s memory fields (it must already hold its counter
/// delta): the peak, and the read amplification of runs that decoded
/// compressed parts.
void finish_memory_report(std::size_t peak_bytes, RunResult& result) {
  result.peak_memory_bytes = peak_bytes;
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
  Timer timer;
  {
    PMPR_TRACE_SPAN("postmortem.run");
    PostmortemDriver driver(&set, nullptr, sink, config, result);
    driver.run();
  }
  result.compute_seconds = timer.seconds();
  result.counters = obs::counters_snapshot().delta_since(before);
  result.histograms = obs::histograms_snapshot().delta_since(hist_before);
  MemoryEstimate est = estimate_memory(set, working_lanes(config));
  if (config.kernel != KernelKind::kSpmm) est.index_bytes = 0;
  result.representation_bytes = est.representation_bytes;
  finish_memory_report(est.peak_bytes(kernel_contexts(config)), result);
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
  // The paged peak: charged payload peak, the always-resident vertex maps,
  // the working sets an in-RAM run of the same problem counts, and (SpMM)
  // the index of the one part pinned at a time.
  std::size_t meta_bytes = 0;
  std::size_t working = 0;
  std::size_t index = 0;
  for (std::size_t p = 0; p < paged.num_parts(); ++p) {
    const MultiWindowGraph& meta = paged.part_meta(p);
    meta_bytes += meta.local_to_global.size() * sizeof(VertexId);
    working = std::max(working, working_bytes(meta.num_local(),
                                              meta.num_events,
                                              working_lanes(config)));
    if (config.kernel == KernelKind::kSpmm) {
      index = std::max(index, window_run_index_bytes(meta.num_local(),
                                                     meta.num_events));
    }
  }
  finish_memory_report(ps.peak_resident_bytes + meta_bytes + index +
                           kernel_contexts(config) * working,
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
