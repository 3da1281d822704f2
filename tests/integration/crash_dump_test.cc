// Black-box crash-dump integration test: a child process installs the
// flight recorder's crash handler, runs a real self-join, and raises
// SIGSEGV from the progress callback mid-run.  The parent asserts the
// child died with that signal AND left a well-formed "ujoin.flight_record"
// crash dump behind — written by the async-signal-safe fd path, since no
// orderly exit ever ran.  The dump is then re-validated by
// tools/validate.py (ctest fixture ujoin_flight_crash).
//
// Skipped under ASan/TSan: both sanitizers own the SIGSEGV disposition
// (allow_user_segv_handler) and fork+signal death is exactly what their
// interceptors reroute.  The Release and UBSan legs run it.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/self_join.h"
#include "obs/flight_recorder.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UJOIN_CRASH_TEST_SKIP 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UJOIN_CRASH_TEST_SKIP 1
#endif

namespace ujoin {
namespace {

// Progress callback for the child: let the first probes finish so the rings
// hold real pipeline events, then die mid-join.
void CrashAtFirstProgress(const JoinProgress& progress, void* /*user*/) {
  if (progress.processed > 0) raise(SIGSEGV);
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(CrashDumpTest, SegfaultMidJoinLeavesWellFormedRecord) {
#ifdef UJOIN_CRASH_TEST_SKIP
  GTEST_SKIP() << "sanitizer owns the SIGSEGV disposition";
#endif
  // ctest runs this test with the binary dir as its working directory;
  // the validator fixture reads the same relative path.
  const std::string dump_path = "flight_crash_sample.json";
  std::remove(dump_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the crash handler, then run a join that kills itself at
    // its first progress report.  Everything below the raise must come from
    // the signal handler's dump path.
    if (!obs::InstallCrashDump(dump_path.c_str())) _exit(3);
    DatasetOptions opt;
    opt.kind = DatasetOptions::Kind::kNames;
    opt.size = 120;
    opt.theta = 0.2;
    opt.seed = 29;
    const Dataset dataset = GenerateDataset(opt);
    JoinOptions options = JoinOptions::Qfct(2, 0.1);
    options.progress_fn = &CrashAtFirstProgress;
    Result<SelfJoinResult> result =
        SimilaritySelfJoin(dataset.strings, dataset.alphabet, options);
    // Reaching here means the signal never fired: report a clean exit the
    // parent will reject.
    _exit(result.ok() ? 0 : 4);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited instead of dying on SIGSEGV; status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const std::string record = ReadWholeFile(dump_path);
  ASSERT_FALSE(record.empty()) << "crash handler wrote no record";
  // Structurally whole despite the crash: schema header, crash reason with
  // the delivering signal, and a closed document.
  EXPECT_EQ(record.rfind("{\"schema\":\"ujoin.flight_record\"", 0), 0u);
  EXPECT_NE(record.find("\"reason\":\"crash\",\"signal\":11"),
            std::string::npos);
  EXPECT_EQ(record.substr(record.size() - 3), "]}\n");
#ifndef UJOIN_OBS_DISABLED
  // The rings hold the join that was in flight: the first probes' query
  // epochs made it in before the signal.  A -DUJOIN_OBS=OFF build records
  // no join events.
  EXPECT_NE(record.find("\"kind\":\"query_begin\""), std::string::npos);
  EXPECT_NE(record.find("\"kind\":\"probe_begin\""), std::string::npos);
#endif
  EXPECT_NE(record.find("\"threads_registered\":"), std::string::npos);
}

// Writes the crash sample even when the segfault leg is skipped, so the
// ctest validator fixture (FIXTURES_REQUIRED ujoin_flight_crash) always
// has bytes to check: under sanitizers the dump comes from the orderly
// path with the same serializer.
TEST(CrashDumpTest, WritesCrashSampleForValidator) {
  const std::string dump_path = "flight_crash_sample.json";
  std::ifstream probe(dump_path);
  if (probe.good()) return;  // the segfault leg already wrote the real one
  obs::FlightDumpOptions options;
  options.reason = "crash";
  options.signal = SIGSEGV;
  ASSERT_TRUE(obs::DumpFlightRecord(dump_path.c_str(), options));
}

}  // namespace
}  // namespace ujoin
