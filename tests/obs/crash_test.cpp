#include "obs/crash.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/flightrec.hpp"

namespace pmpr {
namespace {

/// A load through null that reaches the MMU as SIGSEGV. Exempt from UBSan,
/// which would otherwise report the load and exit before any signal. The
/// pointer is volatile too: GCC at -O1 drops a load through a null it can
/// see, and the helper would return.
__attribute__((no_sanitize_undefined)) void fault_on_null_load() {
  volatile int* volatile null_ptr = nullptr;
  (void)*null_ptr;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CrashHandler, WriteDiagnosticReportCarriesFullSchema) {
  const std::string path =
      ::testing::TempDir() + "pmpr_crash_test_diag.json";
  obs::DiagnosticContext ctx;
  ctx.kind = "watchdog_stall";
  ctx.stalled_phase = "crash.test.phase";
  ctx.stalled_tid = 3;
  ctx.stall_age_ns = 5'000'000;
  ctx.threshold_ns = 1'000'000;
  ASSERT_TRUE(obs::write_diagnostic_report(path, ctx));
  const std::string report = slurp(path);
  EXPECT_NE(report.find("\"schema\": \"pmpr-crash-v1\""), std::string::npos);
  EXPECT_NE(report.find("\"kind\": \"watchdog_stall\""), std::string::npos);
  EXPECT_NE(report.find("\"stalled_phase\": \"crash.test.phase\""),
            std::string::npos);
  EXPECT_NE(report.find("\"stall_age_ns\": 5000000"), std::string::npos);
  EXPECT_NE(report.find("\"threshold_ns\": 1000000"), std::string::npos);
  // The shared writer always emits every diagnostics surface, so hang
  // dumps and crash dumps stay one schema.
  for (const char* key :
       {"\"counters\"", "\"threads\"", "\"heartbeats\"", "\"events\"",
        "\"last_error\"", "\"pid\"", "\"t_ns\""}) {
    EXPECT_NE(report.find(key), std::string::npos) << key;
  }
}

TEST(CrashHandler, WriteDiagnosticReportFailsOnBadPath) {
  const obs::DiagnosticContext ctx;
  EXPECT_FALSE(
      obs::write_diagnostic_report("/nonexistent-pmpr-dir/diag.json", ctx));
}

TEST(CrashHandler, InstallUninstallRoundTrip) {
  ASSERT_FALSE(obs::crash_handler_installed());
  obs::CrashHandlerOptions opts;
  opts.dump_dir = ::testing::TempDir();
  ASSERT_TRUE(obs::install_crash_handler(opts));
  EXPECT_TRUE(obs::crash_handler_installed());
  const std::string path = obs::crash_report_path();
  EXPECT_NE(path.find(::testing::TempDir()), std::string::npos);
  EXPECT_NE(path.find("pmpr-crash-"), std::string::npos);
  EXPECT_NE(path.find(".json"), std::string::npos);
  // Idempotent: a second install succeeds without stacking handlers.
  EXPECT_TRUE(obs::install_crash_handler(opts));
  obs::uninstall_crash_handler();
  EXPECT_FALSE(obs::crash_handler_installed());
  obs::uninstall_crash_handler();  // and again, harmlessly
  EXPECT_FALSE(obs::crash_handler_installed());
}

TEST(CrashHandlerDeathTest, SegvLeavesReportAndReRaises) {
  // threadsafe: the death child re-executes the binary, so earlier tests'
  // helper threads cannot leak into the forked process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "pmpr_crash_test_segv";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dump_dir = dir.string();
  EXPECT_EXIT(
      {
        obs::CrashHandlerOptions opts;
        opts.dump_dir = dump_dir;
        if (!obs::install_crash_handler(opts)) _exit(3);
        obs::set_flight_recorder_enabled(true);
        obs::fr_record(obs::FrEvent::kMark, "crash.test.breadcrumb", 11);
        fault_on_null_load();
        _exit(4);  // unreachable: the re-raised SIGSEGV kills the child
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  // The handler ran before the re-raise: exactly one report, carrying the
  // child's breadcrumb.
  std::vector<fs::path> reports;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    reports.push_back(e.path());
  }
  ASSERT_EQ(reports.size(), 1u) << "expected one crash report in " << dump_dir;
  const std::string report = slurp(reports[0].string());
  EXPECT_NE(report.find("\"schema\": \"pmpr-crash-v1\""), std::string::npos);
  EXPECT_NE(report.find("\"kind\": \"signal\""), std::string::npos);
  EXPECT_NE(report.find("\"signal_name\": \"SIGSEGV\""), std::string::npos);
  EXPECT_NE(report.find("crash.test.breadcrumb"), std::string::npos);
}

}  // namespace
}  // namespace pmpr
