// Differential test of TemporalEdgeList::load_text against the
// line-at-a-time loader it replaced (oracle::load_text_reference).
//
// Every input must load the same events under both loaders, or make both
// throw at the same line. The one allowed difference is a line the oracle
// loads and load_text rejects as malformed, because it falls in one of two
// classes the block loader's grammar made errors (`newly_rejected` below
// decides this on its own): text after the third field, or a '-' on a
// vertex id.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gen/surrogates.hpp"
#include "graph/edge_list.hpp"
#include "oracle/reference_loader.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace pmpr {
namespace {

/// A scratch file that is removed with the test.
class TempFile {
 public:
  TempFile()
      : path_((std::filesystem::temp_directory_path() /
               ("pmpr_loader_diff_" + std::to_string(::getpid()) + ".txt"))
                  .string()) {}
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  void write(const std::string& text) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
  }

 private:
  std::string path_;
};

struct Outcome {
  bool loaded = false;
  std::vector<TemporalEdge> events;
  VertexId num_vertices = 0;
  std::string error;
  std::size_t error_line = 0;  // the N of "path:N: ...", 0 if none
};

template <class Load>
Outcome outcome_of(Load load, const std::string& path) {
  Outcome o;
  try {
    const TemporalEdgeList list = load(path);
    o.loaded = true;
    o.events.assign(list.events().begin(), list.events().end());
    o.num_vertices = list.num_vertices();
  } catch (const std::runtime_error& e) {
    o.error = e.what();
    const std::string prefix = path + ":";
    if (o.error.compare(0, prefix.size(), prefix) == 0) {
      o.error_line = std::stoul(o.error.substr(prefix.size()));
    }
  }
  return o;
}

/// True if the oracle loads `line` as an event but the grammar of
/// load_text does not: a vertex id carries a '-', or text other than
/// blanks follows the third field.
bool newly_rejected(const std::string& line) {
  if (line.empty() || line[0] == '#') return false;
  std::istringstream ss(line);
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  Timestamp t = 0;
  const bool signed_src = (ss >> std::ws).peek() == '-';
  ss >> u;
  const bool signed_dst = (ss >> std::ws).peek() == '-';
  ss >> v >> t;
  if (!ss || u >= kInvalidVertex || v >= kInvalidVertex) return false;
  const bool trailing = !(ss >> std::ws).eof();
  return signed_src || signed_dst || trailing;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// `text` with its control bytes escaped, for failure messages.
std::string escaped(const std::string& text) {
  static constexpr std::string_view kControls = "\n\t\r\v\f";
  static constexpr std::string_view kNames = "ntrvf";
  std::string out;
  for (const char c : text) {
    const std::size_t k = kControls.find(c);
    if (k == std::string_view::npos) {
      out += c;
    } else {
      out += '\\';
      out += kNames[k];
    }
  }
  return out;
}

enum class Agreement { kSameEvents, kSameErrorLine, kNewlyRejected };

/// Loads `text` with both loaders and checks that they agree as the file
/// comment says; returns how they agreed.
Agreement expect_agree(const TempFile& file, const std::string& text) {
  file.write(text);
  const Outcome want = outcome_of(oracle::load_text_reference, file.path());
  const Outcome got = outcome_of(TemporalEdgeList::load_text, file.path());
  if (got.loaded) {
    EXPECT_TRUE(want.loaded) << "oracle: " << want.error;
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    return Agreement::kSameEvents;
  }
  EXPECT_GT(got.error_line, 0u) << got.error;
  if (!want.loaded && want.error_line == got.error_line) {
    return Agreement::kSameErrorLine;
  }
  // load_text stopped at a line the oracle passed: it must be the first
  // newly rejected line.
  EXPECT_TRUE(want.loaded || got.error_line < want.error_line)
      << "load_text: " << got.error << "\noracle: " << want.error;
  const std::vector<std::string> lines = split_lines(text);
  EXPECT_LE(got.error_line, lines.size()) << got.error;
  for (std::size_t i = 0; i < got.error_line && i < lines.size(); ++i) {
    EXPECT_EQ(newly_rejected(lines[i]), i + 1 == got.error_line)
        << "line " << i + 1 << ": '" << escaped(lines[i])
        << "'\nload_text: " << got.error;
  }
  EXPECT_NE(got.error.find("malformed event line"), std::string::npos)
      << got.error;
  return Agreement::kNewlyRejected;
}

std::string text_of(const TemporalEdgeList& list, const TempFile& file) {
  list.save_text(file.path());
  std::ifstream in(file.path(), std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TextLoaderDifferential, FixturesAndAcceptanceSet) {
  const TempFile file;
  const std::vector<std::pair<std::string, Agreement>> cases{
      // The inputs of edge_list_test and validation_test.
      {"# comment\n\n1 2 3\n# another\n4 5 6\n", Agreement::kSameEvents},
      {"1 2 3\nnot numbers\n", Agreement::kSameErrorLine},
      {"1 2 3\n5000000000 2 4\n", Agreement::kSameErrorLine},
      {"4294967295 2 4\n", Agreement::kSameErrorLine},
      {text_of(test::paper_example_directed(), file), Agreement::kSameEvents},
      // Line splitting, skipped lines and the last line.
      {"", Agreement::kSameEvents},
      {"\n\n", Agreement::kSameEvents},
      {"1 2 3", Agreement::kSameEvents},
      {"#\n#x y z\n1 2 3\n", Agreement::kSameEvents},
      {"1 2 3\r\n4 5 6\r\n", Agreement::kSameEvents},
      {"1 2 3\n \n", Agreement::kSameErrorLine},
      {"1 2 3\n\t# indented\n", Agreement::kSameErrorLine},
      {"1 2 3\n\r\n", Agreement::kSameErrorLine},
      // Blanks before each field, none needed after a sign.
      {" \t\v\f\r1\t2 \r 3 \t\n", Agreement::kSameEvents},
      {"1+2 3\n1 2-3\n", Agreement::kSameEvents},
      // Signs and ranges.
      {"+1 +2 +3\n1 2 -3\n1 2 +0\n", Agreement::kSameEvents},
      {"0001 02 -0003\n", Agreement::kSameEvents},
      {"4294967294 0 -9223372036854775808\n", Agreement::kSameEvents},
      {"0 1 9223372036854775807\n", Agreement::kSameEvents},
      {"0 1 9223372036854775808\n", Agreement::kSameErrorLine},
      {"0 1 -9223372036854775809\n", Agreement::kSameErrorLine},
      {"18446744073709551615 1 2\n", Agreement::kSameErrorLine},
      {"18446744073709551616 1 2\n", Agreement::kSameErrorLine},
      {"1 2 +-3\n", Agreement::kSameErrorLine},
      {"1 2 -+3\n", Agreement::kSameErrorLine},
      {"++1 2 3\n", Agreement::kSameErrorLine},
      {"1 2 + 3\n", Agreement::kSameErrorLine},
      {"1 2\n", Agreement::kSameErrorLine},
      {"1 2 x\n", Agreement::kSameErrorLine},
      {"-1 2 3\n", Agreement::kSameErrorLine},
      // The two newly rejected classes.
      {"1 2 0x10\n", Agreement::kNewlyRejected},
      {"1 2 3.5\n", Agreement::kNewlyRejected},
      {"1 2 3x\n", Agreement::kNewlyRejected},
      {"1 2 5 100\n", Agreement::kNewlyRejected},
      {"1 2 3 #x\n", Agreement::kNewlyRejected},
      {"1 2 3-4\n", Agreement::kNewlyRejected},
      {"-0 1 2\n", Agreement::kNewlyRejected},
      {"1 -0 2\n", Agreement::kNewlyRejected},
      {"1 -18446744073709551615 2\n", Agreement::kNewlyRejected},
  };
  for (const auto& [text, agreement] : cases) {
    SCOPED_TRACE("input '" + escaped(text) + "'");
    EXPECT_EQ(expect_agree(file, text), agreement);
  }
}

TEST(TextLoaderDifferential, SaveTextRoundTrips) {
  const TempFile file;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EXPECT_EQ(expect_agree(file, text_of(test::random_events(seed, 500, 3000,
                                                             1 << 30),
                                         file)),
              Agreement::kSameEvents);
  }
  const gen::DatasetSpec spec =
      gen::scaled(gen::dataset_by_name("wiki-talk"), 0.01);
  EXPECT_EQ(expect_agree(file, text_of(gen::generate(spec, 7), file)),
            Agreement::kSameEvents);
}

TEST(TextLoaderDifferential, FileSpanningSeveralBlocks) {
  const TempFile file;
  Xoshiro256 rng(11);
  // Lines of varied length, so line ends fall at varied offsets from the
  // block boundaries; a few comments, blank and CRLF lines among them.
  std::string text;
  std::size_t lines = 0;
  while (text.size() < 3 * TemporalEdgeList::kTextBlockBytes + 4096) {
    const std::uint64_t kind = rng.bounded(16);
    if (kind == 0) {
      text += "# " + std::string(rng.bounded(200), 'c') + "\n";
    } else if (kind == 1) {
      text += "\n";
    } else {
      text += std::string(rng.bounded(4), ' ') +
              std::to_string(rng.bounded(1u << 20)) + " " +
              std::to_string(rng.bounded(1u << 20)) + "\t-" +
              std::to_string(rng.bounded(std::uint64_t{1} << 40)) +
              (rng.bounded(8) == 0 ? "\r\n" : "\n");
    }
    ++lines;
  }
  EXPECT_EQ(expect_agree(file, text), Agreement::kSameEvents);
  text.pop_back();  // no final newline
  EXPECT_EQ(expect_agree(file, text), Agreement::kSameEvents);
  // An error in the last block names the same line under both loaders.
  text += "\n1 2\n";
  const Agreement late_error = expect_agree(file, text);
  EXPECT_EQ(late_error, Agreement::kSameErrorLine);
  const Outcome got = outcome_of(TemporalEdgeList::load_text, file.path());
  EXPECT_EQ(got.error_line, lines + 1) << got.error;
}

TEST(TextLoaderDifferential, LinesLongerThanABlock) {
  const TempFile file;
  constexpr std::size_t kBlock = TemporalEdgeList::kTextBlockBytes;
  const std::string comment = "#" + std::string(2 * kBlock, 'c');
  const std::string blanks(2 * kBlock + 3, ' ');
  const std::string zeros(2 * kBlock + 5, '0');
  // "1 2 3" padded with blanks to `bytes` bytes.
  auto padded = [](std::size_t bytes) {
    return "1 2" + std::string(bytes - 4, ' ') + "3";
  };
  const std::vector<std::pair<std::string, Agreement>> cases{
      {"4 5 6\n" + comment + "\n7 8 9\n", Agreement::kSameEvents},
      {"4 5 6\n" + comment, Agreement::kSameEvents},
      {"4 5 6\n" + padded(kBlock - 1) + "\n", Agreement::kSameEvents},
      {"4 5 6\n" + padded(kBlock) + "\n", Agreement::kSameEvents},
      {"4 5 6\n" + padded(kBlock + 1), Agreement::kSameEvents},
      // Blanks and leading zeros padding every field.
      {blanks + "+" + zeros + "4" + blanks + zeros + " -" + zeros + "6" +
           blanks + "\n7 8 9\n",
       Agreement::kSameEvents},
      {"4 5 6\n" + zeros + " 1" + blanks + "0", Agreement::kSameEvents},
      {"4 5 6\n" + blanks + "\n", Agreement::kSameErrorLine},
      {"4 5 6\n1 2" + blanks + "\n", Agreement::kSameErrorLine},
      {"4 5 6\nx" + comment + "\n", Agreement::kSameErrorLine},
      {"4 5 6\n1 2 3 " + comment + "\n", Agreement::kNewlyRejected},
  };
  for (const auto& [text, agreement] : cases) {
    SCOPED_TRACE("input '" + escaped(text.substr(0, 40)) + "...' of " +
                 std::to_string(text.size()) + " bytes");
    EXPECT_EQ(expect_agree(file, text), agreement);
  }
}

/// A valid event line with random blanks, signs and leading zeros.
std::string random_event_line(Xoshiro256& rng) {
  static constexpr char kBlanks[] = {' ', '\t', '\r', '\v', '\f'};
  auto field = [&](std::uint64_t value, bool negative) {
    std::string f;
    for (std::uint64_t i = rng.bounded(3); i > 0; --i) {
      f += kBlanks[rng.bounded(sizeof(kBlanks))];
    }
    if (negative) {
      f += '-';
    } else if (rng.bounded(6) == 0) {
      f += '+';
    }
    f += std::string(rng.bounded(4) == 0 ? 1 : 0, '0');
    return f + std::to_string(value);
  };
  std::string line = field(rng.bounded(1000), false) + " ";
  line += field(rng.bounded(1000), false) + " ";
  line += field(rng.bounded(100000), rng.bounded(3) == 0);
  if (rng.bounded(4) == 0) line += ' ';
  return line;
}

TEST(TextLoaderDifferential, ByteMutationsOfValidLines) {
  const TempFile file;
  Xoshiro256 rng(2024);
  static constexpr char kAlphabet[] = "0123456789+-#x. \t\r\n";
  constexpr std::size_t kAlphabetSize = sizeof(kAlphabet) - 1;
  std::size_t count[3] = {0, 0, 0};
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    for (std::uint64_t i = 1 + rng.bounded(4); i > 0; --i) {
      text += (rng.bounded(8) == 0 ? "# note" : random_event_line(rng)) + "\n";
    }
    for (std::uint64_t m = 1 + rng.bounded(3); m > 0; --m) {
      const char byte = kAlphabet[rng.bounded(kAlphabetSize)];
      const std::uint64_t op = rng.bounded(3);
      if (op == 0) {
        text.insert(rng.bounded(text.size() + 1), 1, byte);
      } else if (!text.empty()) {
        const std::size_t at = rng.bounded(text.size());
        if (op == 1) {
          text.erase(at, 1);
        } else {
          text[at] = byte;
        }
      }
    }
    SCOPED_TRACE("round " + std::to_string(round) + ": '" + escaped(text) +
                 "'");
    ++count[static_cast<int>(expect_agree(file, text))];
    if (testing::Test::HasFailure()) break;
  }
  // Every kind of agreement occurred, so none of the checks is vacuous.
  EXPECT_GT(count[static_cast<int>(Agreement::kSameEvents)], 0u);
  EXPECT_GT(count[static_cast<int>(Agreement::kSameErrorLine)], 0u);
  EXPECT_GT(count[static_cast<int>(Agreement::kNewlyRejected)], 0u);
}

}  // namespace
}  // namespace pmpr
