// Benchmark harness: generates a workload from a seed, drives the library's
// public entry points on it, checks every output, and prints the metrics.
//
//   ujoin_perfbench --workload join_names|serve_names
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a traced replay.  The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output was correct.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ujoin_perfbench --workload "
               "join_names|serve_names --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long lo, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < lo) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, &seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, &seconds)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--seed, --seconds and --trace are required");
  }
  args.seed = static_cast<uint64_t>(seed);
  args.seconds = static_cast<int>(seconds);
  args.trace = trace == 1;

  const std::string self_test = perfbench::SelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "error: harness self-test failed: %s\n",
                 self_test.c_str());
    return 3;
  }

  perfbench::Report report;
  if (args.workload == "join_names") {
    perfbench::RunJoinWorkload(args, &report);
  } else if (args.workload == "serve_names") {
    perfbench::RunServeWorkload(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const double failed_ratio =
      report.attempted() > 0 ? static_cast<double>(report.failed()) /
                                   static_cast<double>(report.attempted())
                             : 1.0;
  std::printf("failed_ratio %.6g (%lld failed of %lld attempted)\n",
              failed_ratio, static_cast<long long>(report.failed()),
              static_cast<long long>(report.attempted()));
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() && report.failed() == 0 && report.attempted() > 0
             ? 0
             : 1;
}
