// Thread-scaling of the parallel self-join: runs the default datagen
// workload at 1/2/4/8 threads, reports wall time and speedup over the
// single-thread run, and verifies that every configuration returns the
// identical pair list (ids, probabilities, exactness flags).
//
// Usage: bench_selfjoin_scaling [collection_size] [output.json]
//   UJOIN_BENCH_SCALE scales the default collection size (see bench_util.h).
//   Writes BENCH_scaling.json (or the given path) in the shared
//   ujoin.run_report envelope.
//
// Exit code is non-zero if any thread count changes the result — the bench
// doubles as an end-to-end determinism check at benchmark scale.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "join/self_join.h"
#include "obs/json_writer.h"
#include "obs/report.h"
#include "util/timer.h"

namespace {

using ujoin::Alphabet;
using ujoin::Dataset;
using ujoin::GenerateDataset;
using ujoin::JoinOptions;
using ujoin::JoinPair;
using ujoin::Result;
using ujoin::SelfJoinResult;
using ujoin::SimilaritySelfJoin;
using ujoin::Timer;
using ujoin::UncertainString;

bool IdenticalPairs(const std::vector<JoinPair>& a,
                    const std::vector<JoinPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
        a[i].probability != b[i].probability || a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int size = ujoin::bench::Scaled(3000);
  if (argc > 1) size = std::atoi(argv[1]);
  if (size < 2) size = 2;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_scaling.json";

  const ujoin::DatasetOptions data_options =
      ujoin::bench::DblpConfig::Data(size);
  const Dataset dataset = GenerateDataset(data_options);

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("self-join thread scaling: %d dblp-like strings, "
              "k=2 tau=0.1 q=3 (QFCT), %u hardware thread(s)\n",
              size, hardware);
  if (hardware < 4) {
    std::printf("note: fewer than 4 hardware threads available; speedups "
                "above %u× are not physically reachable on this machine\n",
                hardware);
  }

  std::vector<JoinPair> reference;
  double base_seconds = 0.0;
  bool identical = true;

  ujoin::obs::JsonWriter runs;
  runs.BeginArray();
  size_t num_pairs = 0;

  std::printf("%8s %12s %10s %12s %14s\n", "threads", "time[s]", "speedup",
              "pairs", "identical");
  for (int threads : {1, 2, 4, 8}) {
    JoinOptions options = ujoin::bench::DblpConfig::Join();
    options.threads = threads;

    Timer timer;
    Result<SelfJoinResult> result =
        SimilaritySelfJoin(dataset.strings, dataset.alphabet, options);
    const double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "join failed at threads=%d: %s\n", threads,
                   result.status().ToString().c_str());
      return 1;
    }

    bool same = true;
    if (threads == 1) {
      reference = result->pairs;
      base_seconds = seconds;
    } else {
      same = IdenticalPairs(reference, result->pairs);
      identical = identical && same;
    }
    num_pairs = result->pairs.size();
    std::printf("%8d %12.3f %9.2fx %12zu %14s\n", threads, seconds,
                base_seconds > 0.0 ? base_seconds / seconds : 1.0,
                result->pairs.size(), same ? "yes" : "NO");
    runs.BeginObject();
    runs.Key("threads");
    runs.Int(threads);
    runs.Key("seconds");
    runs.Double(seconds);
    runs.Key("speedup");
    runs.Double(base_seconds > 0.0 ? base_seconds / seconds : 1.0);
    runs.Key("identical");
    runs.Bool(same);
    runs.EndObject();
  }
  runs.EndArray();

  ujoin::obs::JsonWriter results;
  results.BeginObject();
  results.Key("collection_size");
  results.Int(size);
  results.Key("hardware_threads");
  results.UInt(hardware);
  results.Key("result_pairs");
  results.UInt(num_pairs);
  results.Key("all_identical");
  results.Bool(identical);
  results.Key("runs");
  results.RawValue(runs.str());
  results.EndObject();
  const ujoin::Status write_status = ujoin::obs::WriteRunReport(
      out_path, "bench_selfjoin_scaling", {{"results", results.TakeString()}});
  if (!write_status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", write_status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: thread count changed the self-join result\n");
    return 1;
  }
  std::printf("all thread counts returned the identical pair list\n");
  return 0;
}
