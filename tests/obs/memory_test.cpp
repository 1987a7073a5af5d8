#include "obs/memory.hpp"

#include <gtest/gtest.h>

namespace pmpr {
namespace {

TEST(Memory, RssReadersReportThisProcess) {
#if defined(__linux__)
  // getrusage exists on Linux and this process certainly has pages
  // resident; the lifetime peak never falls.
  const std::uint64_t first = obs::peak_rss_bytes();
  EXPECT_GT(first, 0u);
  EXPECT_GE(obs::peak_rss_bytes(), first);
#else
  // Elsewhere the reader may legitimately return 0 — just call it.
  (void)obs::peak_rss_bytes();
#endif
}

}  // namespace
}  // namespace pmpr
