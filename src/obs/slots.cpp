#include "obs/slots.hpp"

namespace pmpr::obs {

namespace {

std::atomic<std::size_t> g_next_slot{0};
std::atomic<std::size_t> g_published{0};

/// Atomic chars, so a reader racing a rename sees stale or mixed text but
/// never a data race.
std::atomic<char> g_labels[kThreadSlots][kThreadLabelLen];

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
thread_local std::size_t tls_slot = kNoSlot;

}  // namespace

std::size_t thread_slot() {
  if (tls_slot == kNoSlot) {
    // seq_cst fetch_add: runs once per thread; no need to reason about a
    // weaker order.
    tls_slot = std::min(g_next_slot.fetch_add(1), kThreadSlots - 1);
  }
  return tls_slot;
}

std::size_t claimed_thread_slots() {
  // seq_cst load of a cold gauge; mirrors the claim in thread_slot.
  return std::min(g_next_slot.load(), kThreadSlots);
}

void set_thread_name(std::string_view name) {
  std::atomic<char>* label = g_labels[thread_slot()];
  const std::size_t n = std::min(name.size(), kThreadLabelLen - 1);
  for (std::size_t i = 0; i < n; ++i) {
    // relaxed: labels are advisory text; no other data is published
    // through them.
    label[i].store(name[i], std::memory_order_relaxed);
  }
  label[n].store('\0', std::memory_order_relaxed);  // relaxed: as above
}

void copy_thread_label(std::size_t slot, char (&out)[kThreadLabelLen]) {
  const std::atomic<char>* label = g_labels[std::min(slot, kThreadSlots - 1)];
  std::size_t i = 0;
  for (; i + 1 < kThreadLabelLen; ++i) {
    // relaxed: advisory text, see set_thread_name.
    out[i] = label[i].load(std::memory_order_relaxed);
    if (out[i] == '\0') return;
  }
  out[i] = '\0';
}

std::string thread_label(std::size_t slot) {
  char label[kThreadLabelLen];
  copy_thread_label(slot, label);
  return label;
}

std::size_t published_slot_registries() {
  // seq_cst load of a cold gauge.
  return g_published.load();
}

namespace detail {

void note_registry_published() {
  // seq_cst add: once per registry per process.
  g_published.fetch_add(1);
}

}  // namespace detail

}  // namespace pmpr::obs
