// Per-thread slots shared by every obs pillar.
//
// A thread claims one small index the first time it records telemetry or
// names itself. That index is the thread's tid everywhere: in the Chrome
// trace, the flight-recorder blackbox, the heartbeat table and the crash
// report. Threads past the first kThreadSlots - 1 share the last slot:
// their records stay correct (block fields are atomics), merely contended,
// and they share one label.
//
// Thread labels live in one static table indexed by slot. Static storage
// means naming a thread allocates nothing, and the crash handler can read
// any label at any instant.
//
// SlotRegistry<Block, N> holds one pillar's per-thread blocks: slot s owns
// block min(s, N - 1), so slots at or past N - 1 share the last block. The
// first record allocates the block array and publishes it through an
// atomic pointer; snapshots, stats, resets and the signal handler read
// through find() and see nothing (and allocate nothing) until then. The
// array is leaked: pool workers may still record while static destructors
// run, and the crash handler may read it at any point of the process's
// death.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

namespace pmpr::obs {

/// 256 owned slots plus one shared overflow slot.
inline constexpr std::size_t kThreadSlots = 257;
/// Bytes per thread label, terminator included.
inline constexpr std::size_t kThreadLabelLen = 32;

/// The calling thread's slot, claimed on the first call.
[[nodiscard]] std::size_t thread_slot();

/// Slots claimed so far (at most kThreadSlots). Async-signal-safe.
[[nodiscard]] std::size_t claimed_thread_slots();

/// Names the calling thread on every diagnostics surface: the Perfetto
/// track, the blackbox and crash-report thread tables, and the heartbeat
/// table. Copies up to kThreadLabelLen - 1 bytes; the last call wins.
/// Allocates nothing, so threads name themselves at spawn whatever the
/// gates say.
void set_thread_name(std::string_view name);

/// Copies `slot`'s label ("" when unnamed) into `out`. Async-signal-safe.
void copy_thread_label(std::size_t slot, char (&out)[kThreadLabelLen]);

/// `slot`'s label ("" when unnamed).
[[nodiscard]] std::string thread_label(std::size_t slot);

/// How many slot registries have allocated their block array.
[[nodiscard]] std::size_t published_slot_registries();

namespace detail {
void note_registry_published();
}  // namespace detail

template <typename Block, std::size_t N>
class SlotRegistry {
  static_assert(N >= 1 && N <= kThreadSlots);

 public:
  /// The calling thread's block; the first call allocates the array.
  Block& mine() {
    Block* blocks = find();
    if (blocks == nullptr) blocks = publish();
    return blocks[std::min(thread_slot(), N - 1)];
  }

  /// The block array, or nullptr before the first record.
  /// Async-signal-safe.
  [[nodiscard]] Block* find() const {
    // acquire: pairs with the release half of publish()'s CAS, so a
    // non-null pointer implies fully constructed blocks.
    return blocks_.load(std::memory_order_acquire);
  }

  /// Calls f(block, index) for every block in use, in slot order, and
  /// returns how many it visited: none before the first record.
  /// Async-signal-safe when f is.
  template <typename F>
  std::size_t for_each(F&& f) const {
    // One load bounds the whole walk: a second find() could see an array
    // published after the first returned nullptr.
    Block* blocks = find();
    if (blocks == nullptr) return 0;
    const std::size_t n = std::min(claimed_thread_slots(), N);
    for (std::size_t i = 0; i < n; ++i) f(blocks[i], i);
    return n;
  }

 private:
  Block* publish() {
    Block* fresh = new Block[N];
    Block* expected = nullptr;
    // acq_rel CAS: release publishes the construction to find(); acquire
    // on failure synchronizes with the thread that won the race.
    if (blocks_.compare_exchange_strong(expected, fresh,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      detail::note_registry_published();
      return fresh;
    }
    delete[] fresh;
    return expected;
  }

  std::atomic<Block*> blocks_{nullptr};
};

}  // namespace pmpr::obs
