// Self-test of the benchmark's output check (check.hpp).
//
// On a small wiki-talk surrogate, an unmodified run must give fail_frac 0,
// and each injected fault must raise it: a perturbed rank in one sampled
// window (mass-preserving, so only the oracle comparison can see it), a
// dropped window, and a window delivered twice. Both delivery paths are
// covered: the postmortem runner calls consume_mapped, the streaming
// runner consume_dense. Exits non-zero if any expectation fails.
#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "check.hpp"
#include "exec/config.hpp"
#include "exec/postmortem_runner.hpp"
#include "exec/streaming_runner.hpp"
#include "gen/surrogates.hpp"
#include "graph/multi_window.hpp"

namespace {

enum class Fault { kNone, kPerturb, kDrop, kDuplicate };

const char* name_of(Fault f) {
  switch (f) {
    case Fault::kNone: return "unmodified";
    case Fault::kPerturb: return "perturbed-rank";
    case Fault::kDrop: return "dropped-window";
    case Fault::kDuplicate: return "duplicated-window";
  }
  return "?";
}

/// Swaps the largest rank with the smallest non-zero one: mass, finiteness
/// and signs stay intact, the vector does not.
void perturb(std::vector<double>& pr) {
  auto largest = std::max_element(pr.begin(), pr.end());
  auto smallest = pr.end();
  for (auto it = pr.begin(); it != pr.end(); ++it) {
    if (*it > 0.0 && (smallest == pr.end() || *it < *smallest)) smallest = it;
  }
  if (smallest != pr.end()) std::iter_swap(largest, smallest);
}

/// Forwards every delivery to the checking sink, except that window
/// `target` suffers `fault`.
class FaultySink final : public pmpr::ResultSink {
 public:
  FaultySink(pmpr::ResultSink& inner, Fault fault, std::size_t target)
      : inner_(inner), fault_(fault), target_(target) {}

  void consume_dense(std::size_t w, std::span<const double> pr) override {
    deliver(w, pr, [&](std::span<const double> v) {
      inner_.consume_dense(w, v);
    });
  }

  void consume_mapped(std::size_t w, std::span<const pmpr::VertexId> ids,
                      std::span<const double> pr) override {
    deliver(w, pr, [&](std::span<const double> v) {
      inner_.consume_mapped(w, ids, v);
    });
  }

 private:
  template <typename Forward>
  void deliver(std::size_t w, std::span<const double> pr, Forward forward) {
    if (w != target_ || fault_ == Fault::kNone) return forward(pr);
    switch (fault_) {
      case Fault::kDrop:
        return;
      case Fault::kDuplicate:
        forward(pr);
        return forward(pr);
      case Fault::kPerturb: {
        std::vector<double> copy(pr.begin(), pr.end());
        perturb(copy);
        return forward(copy);
      }
      case Fault::kNone:
        return forward(pr);
    }
  }

  pmpr::ResultSink& inner_;
  Fault fault_;
  std::size_t target_;
};

}  // namespace

int main() {
  const pmpr::gen::DatasetSpec ds =
      pmpr::gen::scaled(pmpr::gen::dataset_by_name("wiki-talk"), 0.02);
  const pmpr::TemporalEdgeList events = pmpr::gen::generate(ds, 7);
  const pmpr::WindowSpec spec =
      pmpr::WindowSpec::cover(events.min_time(), events.max_time(),
                              90 * pmpr::duration::kDay,
                              7 * pmpr::duration::kDay);
  const pmpr::PostmortemConfig config = pmpr::suggest_config_for(events, spec);
  const pmpr::MultiWindowSet set = pmpr::MultiWindowSet::build(
      events, spec, config.num_multi_windows, config.partition_policy);
  const pmpr::StreamingOptions sopts;

  int failures = 0;
  for (const bool streaming : {false, true}) {
    for (const Fault fault :
         {Fault::kNone, Fault::kPerturb, Fault::kDrop, Fault::kDuplicate}) {
      perfbench::CheckingSink check(spec, events.num_vertices(), 16);
      const std::vector<std::size_t>& sampled = check.sampled_windows();
      // A sampled window in the middle of the run for every fault.
      FaultySink sink(check, fault, sampled[sampled.size() / 2]);
      if (streaming) {
        (void)pmpr::run_streaming(events, spec, sink, sopts);
      } else {
        (void)pmpr::run_postmortem_prebuilt(set, sink, config);
      }
      const perfbench::CheckReport r =
          check.finish(events, streaming ? sopts.pr : config.pr);
      bool ok = false;
      switch (fault) {
        case Fault::kNone: ok = r.failed == 0; break;
        case Fault::kPerturb: ok = r.failed == 1 && r.oracle_mismatch == 1; break;
        case Fault::kDrop: ok = r.failed == 1 && r.missing == 1; break;
        case Fault::kDuplicate: ok = r.failed == 1 && r.duplicated == 1; break;
      }
      ok = ok && sampled.front() == 0 && sampled.back() == spec.count - 1;
      std::printf("%-4s %-10s %-18s fail_frac %.6f  max_oracle_l1 %.3g\n",
                  ok ? "ok" : "FAIL", streaming ? "streaming" : "postmortem",
                  name_of(fault), r.fail_frac(), r.max_oracle_l1);
      failures += ok ? 0 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}
