// Chase–Lev work-stealing deque.
//
// This is the per-worker task queue of the pmpr scheduler (see
// par/thread_pool.hpp). The owner pushes and pops at the bottom; any other
// thread may steal from the top. The implementation follows the C11 version
// in Lê, Pop, Cohen & Zappa Nardelli, "Correct and Efficient Work-Stealing
// for Weak Memory Models" (PPoPP 2013), including its memory-order
// annotations.
//
// The paper this repo reproduces uses Intel TBB's work-stealing scheduler;
// the key property it relies on — threads start with contiguous chunks of
// the iteration space and chunks are only broken up when another thread runs
// dry — is a direct consequence of LIFO owner access + FIFO stealing, which
// this deque provides.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

// ThreadSanitizer does not model std::atomic_thread_fence, so the
// fence-based orderings below (exactly the PPoPP'13 annotations) make TSan
// report false races on the task payload handed from push() to steal().
// Under TSan we strengthen the individual accesses to the fence-free
// sequentially-consistent variant of the algorithm instead; regular builds
// keep the cheaper fence form.
#if defined(__SANITIZE_THREAD__)
#define PMPR_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PMPR_TSAN_BUILD 1
#endif
#endif
#ifndef PMPR_TSAN_BUILD
#define PMPR_TSAN_BUILD 0
#endif

namespace pmpr::par {

inline constexpr bool kTsanBuild = PMPR_TSAN_BUILD != 0;

/// Lock-free single-owner deque of `T*` (T* must be a plain pointer type).
/// Grows geometrically; retired buffers are kept until destruction because
/// concurrent thieves may still hold references into them.
template <typename T>
class WsDeque {
 public:
  explicit WsDeque(std::size_t initial_capacity = 256)
      : buffer_(new Buffer(round_up(initial_capacity))) {}

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  ~WsDeque() {
    // relaxed: destruction is single-threaded; no thief can be live here.
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  /// Owner-only: push a task at the bottom.
  void push(T* task) {
    // relaxed: bottom_ is only written by the owner (this thread).
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // acquire: pairs with the release CAS in steal(), so the owner sees
    // slots freed by completed steals before reusing them.
    std::int64_t t = top_.load(std::memory_order_acquire);
    // relaxed: buffer_ is only replaced by the owner (in grow()).
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, task);
    if constexpr (kTsanBuild) {
      bottom_.store(b + 1, std::memory_order_seq_cst);
    } else {
      // release fence + relaxed store (PPoPP'13 Fig. 1): the fence makes
      // the slot write above visible to any thief whose acquire load of
      // bottom_ observes b + 1.
      std::atomic_thread_fence(std::memory_order_release);
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  }

  /// Owner-only: pop the most recently pushed task, or nullptr if empty.
  T* pop() {
    // relaxed: owner-only variable (see push()).
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // relaxed: owner-only variable (see push()).
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    std::int64_t t;
    if constexpr (kTsanBuild) {
      bottom_.store(b, std::memory_order_seq_cst);
      t = top_.load(std::memory_order_seq_cst);
    } else {
      // relaxed store + seq_cst fence + relaxed load (PPoPP'13): the fence
      // globally orders the bottom_ decrement before the top_ read, which
      // is what prevents owner and thief from both taking the last task.
      bottom_.store(b, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      t = top_.load(std::memory_order_relaxed);
    }
    T* task = nullptr;
    if (t <= b) {
      task = buf->get(b);
      if (t == b) {
        // Last element: race against thieves via CAS on top (seq_cst on
        // success; relaxed on failure since we retake no data after losing).
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          task = nullptr;
        }
        // relaxed: owner-only restore of the canonical empty state.
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      // relaxed: owner-only restore of the canonical empty state.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return task;
  }

  /// Any thread: steal the oldest task, or nullptr if empty / lost a race.
  /// A nullptr return does not guarantee the deque is empty (a concurrent
  /// CAS may have failed); callers treat it as "try elsewhere".
  T* steal() {
    std::int64_t t;
    std::int64_t b;
    if constexpr (kTsanBuild) {
      t = top_.load(std::memory_order_seq_cst);
      b = bottom_.load(std::memory_order_seq_cst);
    } else {
      // acquire top, seq_cst fence, acquire bottom (PPoPP'13): the fence
      // orders this thief's top_ read before the bottom_ read against the
      // owner's pop() fence; the acquire on bottom_ pairs with push()'s
      // release fence so the slot contents read below are initialised.
      t = top_.load(std::memory_order_acquire);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      b = bottom_.load(std::memory_order_acquire);
    }
    T* task = nullptr;
    if (t < b) {
      // acquire: pairs with grow()'s release store so the thief sees a
      // fully-copied replacement buffer.
      Buffer* buf = buffer_.load(std::memory_order_acquire);
      task = buf->get(t);
      // seq_cst on success claims the slot; relaxed on failure — the thief
      // abandons the attempt and reads nothing afterwards.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;
      }
    }
    return task;
  }

  /// Approximate depth, safe to call from any thread; racy by nature.
  [[nodiscard]] std::size_t approx_depth() const {
    // relaxed (both): the result is advisory by contract — a monitor
    // gauge, possibly off by in-flight pushes/pops/steals — and no slot
    // payload is ever read based on these indices, so no acquire pairing
    // is needed.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(cap) {}

    // relaxed (get/put): slot visibility is ordered by the top_/bottom_
    // fences and CASes in push()/pop()/steal(), never by the slot access
    // itself (the slots are atomic only to make the data race defined).
    T* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);  // ordered externally, see above
    }
    void put(std::int64_t i, T* task) {
      slots[static_cast<std::size_t>(i) & mask].store(
          task, std::memory_order_relaxed);  // ordered externally, see above
    }

    std::size_t capacity;
    std::size_t mask;
    std::vector<std::atomic<T*>> slots;
  };

  static std::size_t round_up(std::size_t v) {
    std::size_t p = 16;
    while (p < v) p <<= 1;
    return p;
  }

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    retired_.push_back(old);
    // release: publishes the copied slots to thieves that acquire-load
    // buffer_ in steal().
    buffer_.store(bigger, std::memory_order_release);
    return bigger;
  }

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;  // owner-only
};

}  // namespace pmpr::par
