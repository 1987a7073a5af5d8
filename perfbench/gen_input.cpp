// Writes the benchmark input: the wiki-talk surrogate at a given scale and
// seed, as a time-sorted "src dst time" text list (the SNAP format the
// paper's datasets ship in). Runs in its own process so the measured
// rounds see only the file, and its memory never counts against them.
//
//   perfbench_gen --seed 7 --scale 1 --out input.txt
//
// Prints one JSON line with the seed and the event and vertex counts.
#include <cstdint>
#include <cstdio>
#include <string>

#include "gen/surrogates.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  std::int64_t seed = 1;
  double scale = 1.0;
  std::string out;
  pmpr::Options opts("perfbench input generator (wiki-talk surrogate)");
  opts.add("seed", &seed, "generator seed")
      .add("scale", &scale, "event-count multiplier (1 = 400000 events)")
      .add("out", &out, "output text file");
  if (!opts.parse(argc, argv)) return opts.saw_help() ? 0 : 2;
  if (out.empty() || scale <= 0.0) {
    std::fprintf(stderr, "perfbench_gen: need --out and --scale > 0\n");
    return 2;
  }
  const pmpr::gen::DatasetSpec spec =
      pmpr::gen::scaled(pmpr::gen::dataset_by_name("wiki-talk"), scale);
  const pmpr::TemporalEdgeList events =
      pmpr::gen::generate(spec, static_cast<std::uint64_t>(seed));
  events.save_text(out);
  std::printf(
      "{\"seed\": %lld, \"scale\": %.6g, \"events\": %zu, \"vertices\": %u}\n",
      static_cast<long long>(seed), scale, events.size(),
      static_cast<unsigned>(events.num_vertices()));
  return 0;
}
