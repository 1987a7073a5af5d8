#include "obs/memory.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define PMPR_OBS_HAVE_RUSAGE 1
#endif

namespace pmpr::obs {

std::uint64_t peak_rss_bytes() {
#if PMPR_OBS_HAVE_RUSAGE
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

}  // namespace pmpr::obs
