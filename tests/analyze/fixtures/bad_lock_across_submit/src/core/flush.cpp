// Fixture: a lock held across a scheduler boundary. If the submitted task
// (or a helping thread) ever needs state_mutex_, the pool deadlocks; the
// lock pass must flag the submit while the guard is live, and the
// parallel_reduce too: its caller waits on the pool just the same.

namespace fx {

Mutex state_mutex_;
int pending_ = 0;

void flush(ThreadPool& pool) {
  LockGuard hold(state_mutex_);
  pending_ = 0;
  pool.submit([] { return 1; });
}

int total() {
  LockGuard hold(state_mutex_);
  return parallel_reduce(0, pending_, 0, {}, [](int lo, int hi) {
    return hi - lo;
  }, [](int a, int b) { return a + b; });
}

}  // namespace fx
