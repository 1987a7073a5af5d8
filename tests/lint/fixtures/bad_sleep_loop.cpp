// Fixture: must trip [raw-clock] (sleeping-primitive half) and nothing
// else. Polling a flag with a sleep loop outside the sanctioned spots
// (src/util/ CondVar wrapper, src/obs/ watchdog pacing, the pool's park
// backstop) hides latency from the profiler and burns a core; waits must
// be event-driven.
#include <chrono>
#include <thread>

namespace fixture {

bool g_done = false;  // the real code would at least make this atomic

inline void spin_until_done() {
  while (!g_done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace fixture
