#include "par/thread_pool.hpp"

#include <chrono>
#include <cstdlib>

#include <string>

#include "obs/counters.hpp"
#include "obs/flightrec.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace pmpr::par {

namespace {

/// Identifies the pool/worker the current thread belongs to, so that
/// submit() can route tasks to the local deque and steals can skip self.
struct TlsWorker {
  ThreadPool* pool = nullptr;
  int index = -1;
};
thread_local TlsWorker tls_worker;

std::size_t env_thread_count() {
  if (const char* env = std::getenv("PMPR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  deques_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    deques_.push_back(std::make_unique<WsDeque<Task>>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  // release: workers' acquire loads of stop_ must also see everything the
  // destroying thread wrote before shutdown.
  stop_.store(true, std::memory_order_release);
  {
    LockGuard lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
  for (auto& t : workers_) t.join();
  // Drain any tasks that were never executed (should not happen in correct
  // usage, but avoids leaks if a user abandons a WaitGroup). Workers are
  // joined, but the annotated lock is still taken to satisfy the analysis
  // (and it is uncontended here).
  for (auto& dq : deques_) {
    while (std::unique_ptr<Task> t{dq->pop()}) {
    }
  }
  LockGuard lock(inject_mutex_);
  while (!injected_.empty()) {
    std::unique_ptr<Task> t{injected_.front()};
    injected_.pop_front();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_thread_count());
  return pool;
}

void ThreadPool::notify() {
  // Publish the new work, then wake a sleeper only if one exists. Both the
  // epoch bump and the sleeper-count load are seq_cst, as are the worker's
  // sleeper-count increment and epoch re-check in worker_loop(); in the
  // single total order either this bump precedes the worker's re-check
  // (worker sees fresh work and does not sleep) or the worker's increment
  // precedes our load (we see num_sleepers_ > 0 and take the slow path).
  // Either way no wakeup is lost, and the saturated-pool common case skips
  // the mutex entirely.
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (num_sleepers_.load(std::memory_order_seq_cst) == 0) return;
  obs::count(obs::Counter::kUnparks);
  obs::fr_record(obs::FrEvent::kUnpark);
  LockGuard lock(sleep_mutex_);
  sleep_cv_.notify_one();
}

void ThreadPool::submit(std::function<void()> fn, WaitGroup& wg) {
  obs::count(obs::Counter::kTasksSpawned);
  auto task = std::make_unique<Task>(std::move(fn), &wg);
  if (tls_worker.pool == this && tls_worker.index >= 0) {
    deques_[static_cast<std::size_t>(tls_worker.index)]->push(task.release());
  } else {
    LockGuard lock(inject_mutex_);
    injected_.push_back(task.release());
  }
  notify();
}

ThreadPool::Task* ThreadPool::try_pop_injected() {
  LockGuard lock(inject_mutex_);
  if (injected_.empty()) return nullptr;
  Task* t = injected_.front();
  injected_.pop_front();
  return t;
}

ThreadPool::Task* ThreadPool::try_pop_or_steal(std::size_t self_index) {
  // 1. Own deque (workers only; the external helper passes
  //    self_index == num_threads and has no deque).
  if (self_index < deques_.size()) {
    if (Task* t = deques_[self_index]->pop()) return t;
  }
  // 2. Injection queue (cheap check before stealing).
  if (Task* t = try_pop_injected()) return t;
  // 3. Random-victim stealing, two sweeps over the other deques. Attempts
  //    are tallied locally and flushed once per call, not per probe.
  thread_local Xoshiro256 rng(0x7e1d00d5ULL + self_index * 0x9e3779b9ULL);
  const std::size_t n = deques_.size();
  if (n == 0) return nullptr;
  const std::size_t start = rng.bounded(n);
  std::uint64_t attempts = 0;
  for (std::size_t sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t victim = (start + k) % n;
      if (victim == self_index) continue;
      ++attempts;
      if (Task* t = deques_[victim]->steal()) {
        obs::count(obs::Counter::kStealsAttempted, attempts);
        obs::count(obs::Counter::kStealsSucceeded);
        return t;
      }
    }
  }
  if (attempts != 0) obs::count(obs::Counter::kStealsAttempted, attempts);
  return nullptr;
}

bool ThreadPool::try_run_one(std::size_t self_index) {
  std::unique_ptr<Task> task(try_pop_or_steal(self_index));
  if (task == nullptr) return false;
  obs::count(obs::Counter::kTasksExecuted);
  // Failure diagnostics: per-task breadcrumb + liveness beat, so the flight
  // recorder shows scheduler activity and the watchdog sees task churn.
  obs::fr_record(obs::FrEvent::kTaskRun, nullptr, self_index);
  obs::heartbeat("pool.task");
  try {
    task->fn();
  } catch (...) {
    // Leave a last-error breadcrumb before anything else: if this exception
    // later kills the process, the crash report names it.
    try {
      throw;
    } catch (const std::exception& e) {
      obs::fr_record_error(e.what());
    } catch (...) {
      obs::fr_record_error("non-std exception in pool task");
    }
    if (!task->wg->capture_exception(std::current_exception())) {
      // The group already failed with an earlier exception; this one will
      // never be rethrown, so surface it instead of dropping it silently.
      try {
        throw;
      } catch (const std::exception& e) {
        PMPR_LOG(kWarn) << "pool task exception dropped (group already "
                           "failed): "
                        << e.what();
      } catch (...) {
        PMPR_LOG(kWarn) << "pool task exception dropped (group already "
                           "failed): non-std exception";
      }
    }
  }
  task->wg->done();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker.pool = this;
  tls_worker.index = static_cast<int>(index);
  obs::set_thread_name("pool.worker-" + std::to_string(index));
  int idle_spins = 0;
  // acquire: pairs with the destructor's release store so a stopping
  // worker also observes all pre-shutdown writes.
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_run_one(index)) {
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Sleep until new work is submitted. The sleeper count must rise
    // before the epoch re-check (both seq_cst, pairing with notify()) so a
    // submitter either bumps the epoch in time for the re-check to see it
    // or observes num_sleepers_ > 0 and notifies under the mutex; the
    // timeout is a belt-and-braces fallback against missed steals.
    //
    // acquire on the pre-lock epoch read: a stale `seen` is harmless (the
    // seq_cst re-check below decides), acquire merely keeps it ordered
    // before the lock.
    const std::uint64_t seen = work_epoch_.load(std::memory_order_acquire);
    LockGuard lock(sleep_mutex_);
    // acquire: pairs with the destructor's release store of stop_.
    if (stop_.load(std::memory_order_acquire)) break;
    num_sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (work_epoch_.load(std::memory_order_seq_cst) == seen) {
      obs::count(obs::Counter::kParks);
      obs::fr_record(obs::FrEvent::kPark, nullptr, index);
      // Retire the heartbeat slot: a parked worker is idle, not stalled.
      obs::heartbeat_idle();
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    num_sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    idle_spins = 0;
  }
  tls_worker.pool = nullptr;
  tls_worker.index = -1;
}

void ThreadPool::wait(WaitGroup& wg) {
  // Workers help from their own deque slot; external threads help via the
  // virtual slot num_threads (steal-only).
  const std::size_t self =
      (tls_worker.pool == this && tls_worker.index >= 0)
          ? static_cast<std::size_t>(tls_worker.index)
          : deques_.size();
  while (!wg.finished()) {
    if (!try_run_one(self)) {
      // Waiting with nothing to run is idleness, not a stall.
      obs::heartbeat_idle();
      std::this_thread::yield();
    }
  }
  wg.rethrow_if_failed();
}

}  // namespace pmpr::par
