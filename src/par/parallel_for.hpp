// parallel_for / parallel_reduce over index ranges, built on the
// work-stealing ThreadPool.
//
// The range form `parallel_for_range` hands each leaf a contiguous
// [lo, hi) chunk that is guaranteed to execute sequentially on one thread.
// The postmortem runner uses this to chain partial initialization across
// consecutive windows inside a chunk (paper §4.3.1: "if the same thread
// processes G_{i-1} and G_i, then partial initialization occurs").
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "par/partitioner.hpp"
#include "par/thread_pool.hpp"
#include "util/thread_annotations.hpp"

namespace pmpr::par {

/// Execution options for parallel loops.
struct ForOptions {
  Partitioner partitioner = Partitioner::kAuto;
  std::size_t grain = 1;
  /// Pool to run on; nullptr selects ThreadPool::global().
  ThreadPool* pool = nullptr;
};

namespace detail {

/// Recursive binary splitting: peel off the right half as a stealable task,
/// keep the left half hot on the current thread (mirrors TBB's range
/// splitting, preserving left-to-right order on the owning thread).
template <typename Body>
void run_split(ThreadPool& pool, WaitGroup& wg, std::size_t lo, std::size_t hi,
               std::size_t grain, const Body& body) {
  while (hi - lo > grain) {
    const std::size_t mid = lo + (hi - lo) / 2;
    wg.add(1);
    pool.submit(
        [&pool, &wg, mid, hi, grain, &body] {
          run_split(pool, wg, mid, hi, grain, body);
        },
        wg);
    hi = mid;
  }
  body(lo, hi);
}

/// One split of a parallel_reduce_slots chunk range, in an array the
/// caller owns (the split at chunk boundary m is element m - 1): where the
/// result of its range goes, the partials of its two halves, and how many
/// halves are still running.
template <typename T>
struct ReduceSplit {
  ReduceSplit* parent = nullptr;  ///< Owner of *out; null at the root.
  std::optional<T>* out = nullptr;
  std::optional<T> left;
  std::optional<T> right;
  std::atomic<int> pending{2};
};

/// Splits the chunk range [lo, hi) like run_split, down to single chunks,
/// and puts `chunk(c)` in its half of the split above it. Whichever half
/// of a split finishes second combines the two, left before right, and
/// hands the result up, so a partial is combined on a worker as soon as
/// its sibling is ready and the combine tree is the split tree. A half
/// that throws leaves the splits above it unfinished and the result
/// empty; the caller's wait rethrows.
template <typename T, typename Chunk, typename Combine>
void reduce_split(ThreadPool& pool, WaitGroup& wg, ReduceSplit<T>* splits,
                  std::size_t lo, std::size_t hi, const Chunk& chunk,
                  const Combine& combine, ReduceSplit<T>* owner,
                  std::optional<T>* out) {
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ReduceSplit<T>* split = &splits[mid - 1];
    split->parent = owner;
    split->out = out;
    wg.add(1);
    pool.submit(
        [&pool, &wg, splits, split, mid, hi, &chunk, &combine] {
          reduce_split(pool, wg, splits, mid, hi, chunk, combine, split,
                       &split->right);
        },
        wg);
    owner = split;
    out = &split->left;
    hi = mid;
  }
  out->emplace(chunk(lo));
  // acq_rel: the release half publishes this half's partial to the
  // sibling that finishes second; its acquire half sees the sibling's.
  while (owner != nullptr &&
         owner->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    owner->out->emplace(
        combine(std::move(*owner->left), std::move(*owner->right)));
    owner->left.reset();
    owner->right.reset();
    owner = owner->parent;
  }
}

}  // namespace detail

/// Runs `body(lo, hi)` over disjoint chunks covering [begin, end).
/// Blocks until all chunks complete. Safe to nest.
template <typename Body>
void parallel_for_range(std::size_t begin, std::size_t end,
                        const ForOptions& opts, Body&& body) {
  if (begin >= end) return;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t grain =
      effective_grain(opts.partitioner, n, opts.grain, pool.num_threads());
  if (n <= grain || pool.num_threads() == 1) {
    // Fast path: no profitable parallelism. (A 1-thread pool still runs
    // correctly through the task path; we just skip the overhead.)
    body(begin, end);
    return;
  }
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&pool, &wg, begin, end, grain, &body] {
        detail::run_split(pool, wg, begin, end, grain, body);
      },
      wg);
  pool.wait(wg);
}

/// Runs `body(i)` for each i in [begin, end).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const ForOptions& opts,
                  Body&& body) {
  parallel_for_range(begin, end, opts, [&body](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

/// Parallel reduction: `map(lo, hi)` produces a partial result per chunk,
/// `combine(acc, partial)` folds it into the accumulator. `combine` runs
/// under a lock, so it should be cheap relative to `map`.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                  const ForOptions& opts, Map&& map, Combine&& combine) {
  T acc = std::move(identity);
  Mutex acc_mutex;
  parallel_for_range(begin, end, opts,
                     [&](std::size_t lo, std::size_t hi) {
                       T partial = map(lo, hi);
                       LockGuard lock(acc_mutex);
                       acc = combine(std::move(acc), std::move(partial));
                     });
  return acc;
}

/// Deterministic parallel reduction for copyable array/struct accumulators
/// (doubles, std::array<double, N>, small structs). The range is cut into
/// ceil(n / g) chunks of g items, g being effective_grain() for the range,
/// the options and the pool size; `map` runs once per chunk, lock-free,
/// and the chunks' partials are combined pairwise up a binary split of the
/// chunk range, on the workers, left before right. The caller allocates
/// one small record per split; a partial lives only until its sibling is
/// ready, so few are alive at once, and no combine waits for the caller.
/// The chunks and the tree depend on nothing else, so repeated calls with
/// the same arguments on the same pool give bit-identical floating-point
/// results, however the chunks were scheduled. Like parallel_reduce,
/// `identity` enters the result exactly once (an empty range returns it
/// unchanged); a range of one chunk, or a one-thread pool, is one `map`
/// call on the caller.
template <typename T, typename Map, typename Combine>
T parallel_reduce_slots(std::size_t begin, std::size_t end, T identity,
                        const ForOptions& opts, Map&& map, Combine&& combine) {
  if (begin >= end) return identity;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::global();
  const std::size_t n = end - begin;
  const std::size_t grain =
      effective_grain(opts.partitioner, n, opts.grain, pool.num_threads());
  if (n <= grain || pool.num_threads() == 1) {
    return combine(std::move(identity), map(begin, end));
  }
  const auto chunk = [&map, begin, end, grain](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    return map(lo, std::min(end, lo + grain));
  };
  const std::size_t chunks = (n + grain - 1) / grain;
  const auto splits = std::make_unique<detail::ReduceSplit<T>[]>(chunks - 1);
  std::optional<T> total;
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&pool, &wg, splits = splits.get(), chunks, &chunk, &combine, &total] {
        detail::reduce_split<T>(pool, wg, splits, 0, chunks, chunk, combine,
                                nullptr, &total);
      },
      wg);
  pool.wait(wg);
  return combine(std::move(identity), std::move(*total));
}

}  // namespace pmpr::par
