#include "graph/paged_multi_window.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "obs/flightrec.hpp"
#include "obs/histogram.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace pmpr {

namespace {

/// Unique store path under the system temp directory. Pid + process-local
/// counter keeps parallel ctest shards from colliding.
std::string default_store_path() {
  static std::atomic<std::uint64_t> counter{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  return (dir / ("pmpr-oocore-" + std::to_string(pid) + "-" +
                 std::to_string(counter.fetch_add(1)) + ".bin"))
      .string();
}

}  // namespace

std::unique_ptr<PagedMultiWindowSet> PagedMultiWindowSet::build(
    const TemporalEdgeList& events, const WindowSpec& spec,
    const Options& opts) {
  spec.validate();
  PMPR_CHECK_MSG(spec.count >= 1,
                 "PagedMultiWindowSet::build needs at least one window");
  PMPR_CHECK_MSG(events.is_sorted_by_time(),
                 "PagedMultiWindowSet::build requires time-sorted events; "
                 "call sort_by_time() first");

  auto set = std::unique_ptr<PagedMultiWindowSet>(new PagedMultiWindowSet());
  // No concurrency during build; the guard only satisfies the thread-safety
  // analysis for the stats_ writes below.
  LockGuard build_lock(set->mu_);
  set->spec_ = spec;
  set->num_global_ = events.num_vertices();
  set->store_path_ =
      opts.spill_path.empty() ? default_store_path() : opts.spill_path;
  set->owns_store_file_ = true;

  const std::size_t num_parts =
      std::max<std::size_t>(1, std::min(opts.num_parts, spec.count));
  const std::vector<std::size_t> boundaries =
      partition_boundaries(events, spec, num_parts, opts.policy);

  std::ofstream out(set->store_path_, std::ios::binary | std::ios::trunc);
  PMPR_CHECK_MSG(static_cast<bool>(out), "cannot open out-of-core store "
                                             << set->store_path_
                                             << " for writing");

  // Sequential build: one raw part resident at a time. Each part is built,
  // chunk-compressed, appended to the store, and its adjacency discarded —
  // only the metadata (and the vertex map) survives in RAM.
  std::uint64_t offset = 0;
  std::size_t largest_payload = 0;
  std::vector<std::uint8_t> blob;
  for (std::size_t p = 0; p < boundaries.size() - 1; ++p) {
    const std::size_t first = boundaries[p];
    const std::size_t last = boundaries[p + 1];  // exclusive
    if (first == last) continue;
    const Timestamp span_start = spec.start(first);
    const Timestamp span_end = spec.end(last - 1);
    MultiWindowGraph part = build_multi_window_part(
        events.slice(span_start, span_end), first, last - first, span_start,
        span_end);

    const io::CompressedTemporalCsr packed =
        compress_temporal_csr(part.in, opts.target_chunk_entries);
    part.in = TemporalCsr{};  // drop the raw arrays before the next part

    blob.clear();
    packed.serialize_to(blob);
    io::CompressedTemporalCsr::write_bytes(out, blob);
    PMPR_CHECK_MSG(static_cast<bool>(out), "short write to out-of-core store "
                                               << set->store_path_);

    PartSlot slot;
    slot.graph = std::move(part);
    slot.store_offset = offset;
    slot.store_size = blob.size();
    slot.payload_bytes = packed.encoded_bytes();
    set->parts_.push_back(std::move(slot));

    offset += blob.size();
    largest_payload = std::max(largest_payload, packed.encoded_bytes());
    set->stats_.raw_bytes += packed.raw_adjacency_bytes();
    set->stats_.chunks_total += packed.num_chunks();
  }
  out.close();
  PMPR_CHECK_MSG(!set->parts_.empty(),
                 "paged build produced no parts (empty window spec?)");
  set->stats_.store_bytes = offset;

  // Budget 0 = "one part at a time". A nonzero budget must at least hold
  // the largest part: it is a hard cap, so an impossible configuration is
  // rejected here rather than deadlocking the first acquire.
  set->budget_bytes_ =
      opts.budget_bytes == 0 ? largest_payload : opts.budget_bytes;
  PMPR_CHECK_MSG(largest_payload <= set->budget_bytes_,
                 "memory budget " << set->budget_bytes_
                                  << " B cannot hold the largest part ("
                                  << largest_payload
                                  << " B compressed); raise the budget or "
                                     "increase num_parts");

  set->file_ = std::make_shared<io::MmapFile>(
      io::MmapFile::open(set->store_path_));
  PMPR_CHECK_MSG(set->file_->bytes().size() == offset,
                 "out-of-core store " << set->store_path_ << " holds "
                                      << set->file_->bytes().size()
                                      << " B, expected " << offset);
  return set;
}

PagedMultiWindowSet::~PagedMultiWindowSet() {
  // Drop every mapping before unlinking the store.
  for (auto& slot : parts_) slot.graph.in_compressed.reset();
  file_.reset();
  if (owns_store_file_ && !store_path_.empty()) {
    std::error_code ec;
    std::filesystem::remove(store_path_, ec);  // best effort
  }
}

PagedMultiWindowSet::Lease& PagedMultiWindowSet::Lease::operator=(
    Lease&& other) noexcept {
  if (this != &other) {
    release();
    set_ = other.set_;
    part_ = other.part_;
    other.set_ = nullptr;
  }
  return *this;
}

const MultiWindowGraph& PagedMultiWindowSet::Lease::part() const {
  PMPR_CHECK_MSG(set_ != nullptr, "part() on a released Lease");
  return set_->parts_[part_].graph;
}

void PagedMultiWindowSet::Lease::release() {
  if (set_ == nullptr) return;
  set_->release_pin(part_);
  set_ = nullptr;
}

PagedMultiWindowSet::Lease PagedMultiWindowSet::acquire(std::size_t p) {
  PMPR_CHECK_MSG(p < parts_.size(), "acquire(" << p << ") on a store with "
                                               << parts_.size() << " parts");
  LockGuard lock(mu_);
  PartSlot& slot = parts_[p];
  if (!slot.graph.is_compressed()) {
    const bool refault = slot.ever_mapped;
    if (refault) ++stats_.part_refaults;
    // Map-fault latency: the phase name distinguishes first faults from
    // refaults; the distribution lands in the io.page phase histogram, and
    // the heartbeat tells the watchdog the thread is paging (I/O-bound, so
    // legitimately the slowest thing in a run). Refaults also leave a
    // breadcrumb: a refault storm is the classic postmortem.
    PMPR_PHASE(obs::Phase::kPage, refault ? "oocore.refault" : "oocore.map",
               p);
    if (refault) {
      obs::fr_record(obs::FrEvent::kRefault, "oocore.refault", p,
                     slot.payload_bytes);
    }
    make_room(slot.payload_bytes);
    io::CompressedTemporalCsr packed = io::CompressedTemporalCsr::map_at(
        file_, slot.store_offset, slot.store_size);
    packed.advise(io::Advice::kWillNeed);
    slot.graph.in_compressed =
        std::make_shared<const io::CompressedTemporalCsr>(std::move(packed));
    slot.ever_mapped = true;
    resident_bytes_ += slot.payload_bytes;
    stats_.peak_resident_bytes =
        std::max(stats_.peak_resident_bytes, resident_bytes_);
    // Ground-truth watermark: an mincore scan of the whole store, taken
    // only on the map path where mmap/madvise syscalls are already in
    // play. Kernel readahead may legitimately put it above the charged
    // peak; lazy faulting below.
    stats_.measured_resident_peak_bytes =
        std::max(stats_.measured_resident_peak_bytes,
                 file_->resident_bytes());
  }
  ++slot.pin_count;
  slot.last_use = ++clock_;
  return Lease(this, p);
}

void PagedMultiWindowSet::release_pin(std::size_t p) {
  LockGuard lock(mu_);
  PartSlot& slot = parts_[p];
  PMPR_CHECK_MSG(slot.pin_count > 0, "release of an unpinned part " << p);
  --slot.pin_count;
}

void PagedMultiWindowSet::make_room(std::size_t need) {
  PMPR_CHECK_MSG(need <= budget_bytes_,
                 "part payload of " << need << " B exceeds the "
                                    << budget_bytes_ << " B memory budget");
  while (resident_bytes_ + need > budget_bytes_) {
    std::size_t victim = parts_.size();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      const PartSlot& s = parts_[i];
      if (s.graph.is_compressed() && s.pin_count == 0 && s.last_use < oldest) {
        victim = i;
        oldest = s.last_use;
      }
    }
    PMPR_CHECK_MSG(victim < parts_.size(),
                   "memory budget " << budget_bytes_
                                    << " B exhausted: " << resident_bytes_
                                    << " B pinned, " << need
                                    << " B more needed and nothing evictable");
    PartSlot& v = parts_[victim];
    PMPR_TRACE_SPAN("oocore.evict");
    obs::fr_record(obs::FrEvent::kEvict, "oocore.evict", victim,
                   v.payload_bytes);
    // madvise(DONTNEED) on the clean file-backed payload pages frees them
    // immediately; the next acquire refaults from the store file.
    v.graph.in_compressed->advise(io::Advice::kDontNeed);
    v.graph.in_compressed.reset();
    resident_bytes_ -= v.payload_bytes;
    ++stats_.parts_evicted;
    stats_.bytes_evicted += v.payload_bytes;
  }
}

std::size_t PagedMultiWindowSet::part_index_for_window(std::size_t w) const {
  PMPR_CHECK_MSG(w < spec_.count, "window " << w << " outside the spec's "
                                            << spec_.count << " windows");
  std::size_t lo = 0;
  std::size_t hi = parts_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (parts_[mid].graph.first_window <= w) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t PagedMultiWindowSet::resident_bytes() const {
  LockGuard lock(mu_);
  return resident_bytes_;
}

PagingStats PagedMultiWindowSet::stats() const {
  LockGuard lock(mu_);
  return stats_;
}

}  // namespace pmpr
