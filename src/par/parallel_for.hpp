// parallel_for / parallel_reduce over index ranges, built on the
// work-stealing ThreadPool.
//
// A loop over n items cuts its range into ceil(n / g) chunks of g =
// effective_grain() items (the last one shorter) and splits the chunk
// range in halves down to single chunks. Each leaf of `parallel_for_range`
// is one chunk, a contiguous [lo, hi) that runs sequentially on one
// thread, so the leaves depend only on the partitioner, n, the grain and
// the pool size. The postmortem runner cuts its work list on the same
// grid (`chunk_width`) to chain partial initialization across consecutive
// windows inside a leaf (paper §4.3.1: "if the same thread processes
// G_{i-1} and G_i, then partial initialization occurs"), and
// `parallel_reduce` combines one partial per leaf along the same split
// tree.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "par/partitioner.hpp"
#include "par/thread_pool.hpp"

namespace pmpr::par {

/// Execution options for parallel loops.
struct ForOptions {
  Partitioner partitioner = Partitioner::kAuto;
  std::size_t grain = 1;
  /// Pool to run on; nullptr selects ThreadPool::global().
  ThreadPool* pool = nullptr;
};

namespace detail {

inline ThreadPool& pool_of(const ForOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : ThreadPool::global();
}

/// Recursive binary splitting of the chunk range [lo, hi): the left half
/// takes floor((hi - lo) / 2) chunks and stays hot on the current thread,
/// the right half is peeled off as a stealable task (mirrors TBB's range
/// splitting, preserving left-to-right order on the owning thread). Calls
/// `leaf(c)` once per chunk c.
template <typename Leaf>
void run_split(ThreadPool& pool, WaitGroup& wg, std::size_t lo, std::size_t hi,
               const Leaf& leaf) {
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    wg.add(1);
    pool.submit(
        [&pool, &wg, mid, hi, &leaf] { run_split(pool, wg, mid, hi, leaf); },
        wg);
    hi = mid;
  }
  leaf(lo);
}

/// The partials of the two halves of one split of a parallel_reduce chunk
/// range, and how many halves are still running.
template <typename T>
struct ReduceSplit {
  std::optional<T> left;
  std::optional<T> right;
  std::atomic<int> pending{2};
};

/// Puts chunk c's partial in its half of the split above it, in the tree
/// run_split makes over [0, chunks) (the split at chunk boundary m is
/// splits[m - 1]). Whichever half of a split finishes second combines the
/// two, left before right, and hands the result up, so a partial is
/// combined on a worker as soon as its sibling is ready; the root's result
/// goes to `total`.
template <typename T, typename Combine>
void reduce_leaf(ReduceSplit<T>* splits, std::size_t chunks, std::size_t c,
                 T partial, const Combine& combine, std::optional<T>& total) {
  // The splits from the root down to chunk c, and whether c is in the
  // right half of each. The depth is at most log2(chunks) < 64.
  std::array<std::pair<ReduceSplit<T>*, bool>, 64> path;
  std::size_t depth = 0;
  for (std::size_t lo = 0, hi = chunks; hi - lo > 1; ++depth) {
    const std::size_t mid = lo + (hi - lo) / 2;
    path[depth] = {&splits[mid - 1], c >= mid};
    if (c >= mid) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  for (; depth > 0; --depth) {
    const auto [split, right] = path[depth - 1];
    (right ? split->right : split->left).emplace(std::move(partial));
    // acq_rel: the release half publishes this half's partial to the
    // sibling that finishes second; its acquire half sees the sibling's.
    if (split->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    partial = combine(std::move(*split->left), std::move(*split->right));
    split->left.reset();
    split->right.reset();
  }
  total.emplace(std::move(partial));
}

}  // namespace detail

/// Items per leaf of a loop over n > 0 items: effective_grain(), or all n
/// when the loop is one call on the caller (a one-thread pool).
inline std::size_t chunk_width(const ForOptions& opts, std::size_t n) {
  const std::size_t threads = detail::pool_of(opts).num_threads();
  if (threads == 1) return n;
  return std::min(n,
                  effective_grain(opts.partitioner, n, opts.grain, threads));
}

/// Runs `body(lo, hi)` once per chunk of [begin, end) (see the top of this
/// file); the chunks are disjoint and cover the range. Blocks until all
/// chunks complete and rethrows the first exception a chunk raised. Safe
/// to nest.
template <typename Body>
void parallel_for_range(std::size_t begin, std::size_t end,
                        const ForOptions& opts, Body&& body) {
  if (begin >= end) return;
  const std::size_t width = chunk_width(opts, end - begin);
  if (width == end - begin) {
    // One chunk: no profitable parallelism. (A 1-thread pool would run
    // correctly through the task path; we just skip the overhead.)
    body(begin, end);
    return;
  }
  const auto leaf = [&body, begin, end, width](std::size_t c) {
    const std::size_t lo = begin + c * width;
    body(lo, std::min(end, lo + width));
  };
  ThreadPool& pool = detail::pool_of(opts);
  const std::size_t chunks = (end - begin + width - 1) / width;
  WaitGroup wg;
  wg.add(1);
  pool.submit(
      [&pool, &wg, chunks, &leaf] {
        detail::run_split(pool, wg, 0, chunks, leaf);
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

/// Deterministic parallel reduction: `map(lo, hi)` produces one partial
/// per parallel_for_range chunk, lock-free, and `combine(a, b)` joins two
/// partials pairwise up the split tree of the chunk range, on the workers,
/// left before right. The caller allocates one small record per split; a
/// partial lives only until its sibling is ready, so few are alive at
/// once, and no combine waits for the caller. The chunks and the tree
/// depend on nothing but the range, the options and the pool size, so
/// repeated calls with the same arguments on the same pool give
/// bit-identical floating-point results, however the chunks were
/// scheduled. `identity` enters the result exactly once, as the left
/// operand of the last combine (an empty range returns it unchanged); a
/// range of one chunk, or a one-thread pool, is one `map` call on the
/// caller.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T identity,
                  const ForOptions& opts, Map&& map, Combine&& combine) {
  if (begin >= end) return identity;
  const std::size_t width = chunk_width(opts, end - begin);
  const std::size_t chunks = (end - begin + width - 1) / width;
  if (chunks == 1) return combine(std::move(identity), map(begin, end));
  const auto splits = std::make_unique<detail::ReduceSplit<T>[]>(chunks - 1);
  std::optional<T> total;
  parallel_for_range(begin, end, opts, [&](std::size_t lo, std::size_t hi) {
    detail::reduce_leaf(splits.get(), chunks, (lo - begin) / width,
                        map(lo, hi), combine, total);
  });
  return combine(std::move(identity), std::move(*total));
}

}  // namespace pmpr::par
