// Parallel merge sort on the work-stealing pool.
//
// Sorting the event database by time is the postmortem model's single
// upfront pass over all data; for multi-million-event lists a parallel
// sort keeps the representation-build phase proportional to the rest of
// the pipeline. Stable (ties keep input order, matching
// TemporalEdgeList::sort_by_time's contract).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "par/parallel_for.hpp"

namespace pmpr {

namespace detail {

template <typename T, typename Less>
void merge_sort_rec(T* data, T* buffer, std::size_t lo, std::size_t hi,
                    const Less& less, std::size_t cutoff,
                    par::ThreadPool& pool) {
  const std::size_t n = hi - lo;
  if (n <= cutoff) {
    std::stable_sort(data + lo, data + hi, less);
    return;
  }
  const std::size_t mid = lo + n / 2;
  // Sort the two halves as a loop of two items, one task each.
  const std::array<std::size_t, 3> bounds{lo, mid, hi};
  par::parallel_for(0, 2, {par::Partitioner::kSimple, 1, &pool},
                    [&](std::size_t half) {
                      merge_sort_rec(data, buffer, bounds[half],
                                     bounds[half + 1], less, cutoff, pool);
                    });
  // Merge into the buffer, then move back. Stability: on ties take left.
  std::merge(std::make_move_iterator(data + lo),
             std::make_move_iterator(data + mid),
             std::make_move_iterator(data + mid),
             std::make_move_iterator(data + hi), buffer + lo, less);
  std::move(buffer + lo, buffer + hi, data + lo);
}

}  // namespace detail

/// Stable parallel sort of `v` with comparator `less`. `pool` = nullptr
/// uses the global pool. Sequential cutoff defaults to ~16k elements.
template <typename T, typename Less = std::less<T>>
void parallel_sort(std::vector<T>& v, Less less = Less{},
                   par::ThreadPool* pool = nullptr,
                   std::size_t cutoff = 1 << 14) {
  if (v.size() <= cutoff) {
    std::stable_sort(v.begin(), v.end(), less);
    return;
  }
  par::ThreadPool& p = pool != nullptr ? *pool : par::ThreadPool::global();
  std::vector<T> buffer(v.size());
  detail::merge_sort_rec(v.data(), buffer.data(), 0, v.size(), less,
                         std::max<std::size_t>(cutoff, 1), p);
}

}  // namespace pmpr
