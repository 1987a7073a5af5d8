// The shared obs vocabulary: every PMPR_PHASE site feeds the trace, the
// histograms and the flight recorder alike; a thread's slot is its one tid
// on every diagnostics surface; readers racing a registry's first record
// see it whole or not at all; and with every gate off no slot registry is
// ever allocated.
#include "obs/phase.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "exec/offline_runner.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
#include "obs/counters.hpp"
#include "obs/crash.hpp"
#include "obs/slots.hpp"
#include "par/thread_pool.hpp"
#include "test_helpers.hpp"

namespace pmpr {
namespace {

/// Turns the tracing, histogram, recorder and heartbeat gates off and
/// empties their buffers; restores the gates on scope exit.
struct PhaseGates {
  const bool tracing = obs::set_tracing_enabled(false);
  const bool histograms = obs::set_histograms_enabled(false);
  const bool recorder = obs::set_flight_recorder_enabled(false);
  const bool heartbeats = obs::set_heartbeats_enabled(false);
  PhaseGates() { clear(); }
  ~PhaseGates() {
    // Retire this thread's heartbeat slot: a runner's last phase edge
    // leaves it active.
    obs::set_heartbeats_enabled(true);
    obs::heartbeat_idle();
    clear();
    obs::set_tracing_enabled(tracing);
    obs::set_histograms_enabled(histograms);
    obs::set_flight_recorder_enabled(recorder);
    obs::set_heartbeats_enabled(heartbeats);
  }
  static void clear() {
    obs::clear_trace();
    obs::reset_histograms();
    obs::clear_flight_recorder();
  }
};

enum class Model { kOffline, kStreaming, kSpmv, kSpmm, kPaged };
constexpr std::array<Model, 5> kModels = {Model::kOffline, Model::kStreaming,
                                          Model::kSpmv, Model::kSpmm,
                                          Model::kPaged};

const char* model_name(Model m) {
  switch (m) {
    case Model::kOffline: return "offline";
    case Model::kStreaming: return "streaming";
    case Model::kSpmv: return "postmortem-spmv";
    case Model::kSpmm: return "postmortem-spmm";
    case Model::kPaged: return "postmortem-paged";
  }
  return "?";
}

/// Five windows over an 8-vertex graph: few phases and few row-sort tasks
/// in the representation build, so one run records about half of what a
/// 128-slot recorder ring holds.
void run_model(Model m, par::ThreadPool& pool) {
  const TemporalEdgeList events = test::random_events(23, 8, 600, 4000);
  const WindowSpec spec = WindowSpec::cover(0, 4000, 1500, 1000);
  StoreAllSink sink(spec.count);
  if (m == Model::kOffline) {
    OfflineOptions opts;
    opts.parallel_kernel = false;
    opts.pool = &pool;
    run_offline(events, spec, sink, opts);
    return;
  }
  if (m == Model::kStreaming) {
    StreamingOptions opts;
    opts.parallel_kernel = false;
    opts.pool = &pool;
    run_streaming(events, spec, sink, opts);
    return;
  }
  PostmortemConfig cfg;
  cfg.mode = ParallelMode::kWindow;  // serial kernels: few pool tasks
  cfg.kernel = m == Model::kSpmv ? KernelKind::kSpmv : KernelKind::kSpmm;
  cfg.vector_length = 2;
  cfg.num_multi_windows = 2;
  if (m == Model::kPaged) cfg.storage = StorageKind::kOutOfCore;
  cfg.pool = &pool;
  run_postmortem(events, spec, sink, cfg);
}

/// Runs `m` until one run leaves every recorder ring unwrapped, so the
/// recorder holds all of that run's events. Scheduler events share the
/// rings with the phase events (task runs, unparks, and a park per 1 ms
/// backstop wake of an idle worker), so a run slowed by a loaded host can
/// wrap one; such a run proves nothing either way. Returns false when no
/// attempt was clean.
bool run_unwrapped(Model m, par::ThreadPool& pool) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    PhaseGates::clear();
    run_model(m, pool);
    if (obs::flight_recorder_stats().dropped == 0) return true;
  }
  return false;
}

/// Every phase name the runners and the paged store use, by histogram.
const std::map<std::string, obs::Phase>& phase_vocabulary() {
  static const std::map<std::string, obs::Phase> vocabulary = {
      {"postmortem.build_representation", obs::Phase::kBuild},
      {"postmortem.build_paged_store", obs::Phase::kBuild},
      {"window.build", obs::Phase::kBuild},
      {"batch.build", obs::Phase::kBuild},
      {"part.compile", obs::Phase::kBuild},
      {"window.mutate", obs::Phase::kBuild},
      {"window.init", obs::Phase::kInit},
      {"batch.init", obs::Phase::kInit},
      {"window.iterate", obs::Phase::kIterate},
      {"batch.iterate", obs::Phase::kIterate},
      {"window.sink", obs::Phase::kSink},
      {"batch.sink", obs::Phase::kSink},
      {"oocore.map", obs::Phase::kPage},
      {"oocore.refault", obs::Phase::kPage},
  };
  return vocabulary;
}

TEST(PhaseVocabulary, SpansHistogramsAndRecorderAgreePerPhase) {
  PhaseGates gates;
  obs::set_tracing_enabled(true);
  obs::set_histograms_enabled(true);
  obs::set_flight_recorder_enabled(true);
  par::ThreadPool pool(1);
  const auto& vocabulary = phase_vocabulary();
  std::uint64_t pages = 0;
  for (const Model m : kModels) {
    SCOPED_TRACE(model_name(m));
    ASSERT_TRUE(run_unwrapped(m, pool)) << "every run wrapped a ring";
    const obs::HistogramSnapshot hist = obs::histograms_snapshot();
    std::array<std::uint64_t, obs::kNumPhases> spans{};
    std::array<std::uint64_t, obs::kNumPhases> begins{};
    for (const obs::TraceEvent& e : obs::collect_trace()) {
      const auto it = vocabulary.find(e.name);
      if (it == vocabulary.end()) continue;
      ++spans[static_cast<std::size_t>(it->second)];
    }
    for (const obs::FlightEvent& e : obs::snapshot_flight_recorder()) {
      if (e.kind != obs::FrEvent::kSpanBegin) continue;
      const auto it = vocabulary.find(e.name);
      ASSERT_NE(it, vocabulary.end()) << "phase outside the vocabulary: "
                                      << e.name;
      ++begins[static_cast<std::size_t>(it->second)];
    }
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      SCOPED_TRACE(std::string(obs::to_string(phase)));
      EXPECT_EQ(spans[p], hist[phase].total_count());
      EXPECT_EQ(begins[p], hist[phase].total_count());
    }
    EXPECT_GT(hist[obs::Phase::kBuild].total_count(), 0u);
    EXPECT_GT(hist[obs::Phase::kSink].total_count(), 0u);
    pages += hist[obs::Phase::kPage].total_count();
  }
  EXPECT_GT(pages, 0u) << "the paged run recorded no io.page phase";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ThreadSlots, OneTidAndLabelOnEverySurface) {
  PhaseGates gates;
  obs::set_tracing_enabled(true);
  obs::set_flight_recorder_enabled(true);
  obs::set_heartbeats_enabled(true);
  // The main thread records first, without a span, so numbering threads
  // per pillar would give the worker different tids on different surfaces.
  obs::fr_record(obs::FrEvent::kMark, "slot.test.main");
  std::size_t slot = obs::kThreadSlots;
  std::thread worker([&slot] {
    obs::set_thread_name("slot.test.worker");
    {
      PMPR_TRACE_SPAN("slot.test.span");
    }
    obs::fr_record(obs::FrEvent::kMark, "slot.test.mark");
    obs::heartbeat("slot.test.beat");
    obs::heartbeat_idle();
    slot = obs::thread_slot();
  });
  worker.join();
  ASSERT_LT(slot, obs::kThreadSlots);
  const std::string tid = std::to_string(slot);

  bool span_seen = false;
  for (const obs::TraceEvent& e : obs::collect_trace()) {
    if (e.name != "slot.test.span") continue;
    span_seen = true;
    EXPECT_EQ(e.tid, slot);
  }
  EXPECT_TRUE(span_seen);
  std::ostringstream trace;
  obs::write_chrome_trace(trace);
  EXPECT_NE(trace.str().find("\"tid\": " + tid +
                             ", \"args\": {\"name\": \"slot.test.worker\"}"),
            std::string::npos);

  bool mark_seen = false;
  for (const obs::FlightEvent& e : obs::snapshot_flight_recorder()) {
    if (e.name != "slot.test.mark") continue;
    mark_seen = true;
    EXPECT_EQ(e.tid, slot);
  }
  EXPECT_TRUE(mark_seen);
  const std::string thread_entry =
      "{\"tid\": " + tid + ", \"label\": \"slot.test.worker\", \"records\": ";
  std::ostringstream box;
  obs::write_blackbox_json(box);
  EXPECT_NE(box.str().find(thread_entry), std::string::npos);

  bool beat_seen = false;
  for (const obs::HeartbeatView& v : obs::heartbeat_table()) {
    if (v.tid != slot) continue;
    beat_seen = true;
    EXPECT_EQ(v.label, "slot.test.worker");
    EXPECT_GE(v.beats, 1u);
  }
  EXPECT_TRUE(beat_seen);

  // The crash report's thread and heartbeat tables use the same tid.
  const std::string path = ::testing::TempDir() + "pmpr_slot_test_diag.json";
  ASSERT_TRUE(obs::write_diagnostic_report(path, obs::DiagnosticContext{}));
  const std::string report = slurp(path);
  EXPECT_NE(report.find(thread_entry), std::string::npos);
  EXPECT_NE(report.find("{\"tid\": " + tid +
                        ", \"label\": \"slot.test.worker\", \"phase\": "),
            std::string::npos);
}

struct StressBlock {
  std::atomic<std::uint64_t> hits{0};
};

TEST(ThreadSlots, WalkRacingTheFirstRecordSeesAllOrNothing) {
  // Each round races a walk loop against the first record into a fresh
  // registry, so the publish lands at a random point of some walk. A walk
  // that bounds itself by a second pointer load reads through nullptr.
  (void)obs::thread_slot();  // at least one claimed slot to walk
  for (int round = 0; round < 500; ++round) {
    obs::SlotRegistry<StressBlock, 4> reg;
    std::atomic<bool> walking{false};
    std::uint64_t seen = 0;
    std::thread walker([&] {
      walking.store(true);
      while (seen == 0) {
        reg.for_each([&](const StressBlock& b, std::size_t) {
          seen += b.hits.load();
        });
      }
    });
    while (!walking.load()) {
    }
    reg.mine().hits.fetch_add(1);
    walker.join();
    EXPECT_EQ(seen, 1u);
    // The registry leaks its array by design; the test owns it instead.
    const std::unique_ptr<StressBlock[]> owned(reg.find());
  }
}

TEST(ThreadSlotsDeathTest, SnapshotsRacingTheFirstRecordAreSafe) {
  // threadsafe: a fresh process, so the writer's records are the first
  // into every registry while the reader walks them.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        obs::set_counters_enabled(true);
        obs::set_flight_recorder_enabled(true);
        obs::set_heartbeats_enabled(true);
        std::FILE* sink = std::fopen("/dev/null", "w");
        const int fd = sink != nullptr ? fileno(sink) : 2;
        obs::Watchdog dog{obs::WatchdogOptions{}};
        std::atomic<bool> reading{false};
        std::atomic<bool> done{false};
        std::thread reader([&] {
          reading.store(true);
          while (!done.load()) {
            (void)obs::counters_snapshot();
            (void)obs::flight_recorder_stats();
            (void)obs::heartbeat_table();
            (void)dog.check_once();
            (void)obs::fr_emit_events_json(fd);
            obs::watchdog_emit_heartbeats_json(fd);
          }
        });
        while (!reading.load()) {
        }
        std::thread writer([] {
          obs::set_thread_name("race.writer");  // as pool workers do
          obs::count(obs::Counter::kTasksSpawned);
          obs::fr_record(obs::FrEvent::kMark, "race.mark");
          obs::heartbeat("race.beat");
          obs::heartbeat_idle();
        });
        writer.join();
        done.store(true);
        reader.join();
        const std::uint64_t counted =
            obs::counters_snapshot()[obs::Counter::kTasksSpawned];
        std::fprintf(stderr, "counted=%llu\n",
                     static_cast<unsigned long long>(counted));
        std::_Exit(counted == 1 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "counted=1");
}

TEST(ThreadSlotsDeathTest, GatesOffRunsAllocateNoRegistry) {
  // threadsafe: the child re-executes the binary, so it starts from a
  // process where no test has touched a registry yet.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        par::ThreadPool pool(2);
        for (const Model m : kModels) run_model(m, pool);
        const std::size_t rings = obs::flight_recorder_stats().threads;
        const std::size_t beats = obs::heartbeat_table().size();
        const std::size_t published = obs::published_slot_registries();
        std::fprintf(stderr, "rings=%zu beats=%zu published=%zu\n", rings,
                     beats, published);
        std::_Exit(rings == 0 && beats == 0 && published == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "rings=0 beats=0 published=0");
}

}  // namespace
}  // namespace pmpr
