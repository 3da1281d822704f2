// The benchmark's workloads and the metric sets every one of them reports.
#ifndef UJOIN_PERFBENCH_WORKLOADS_H_
#define UJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "span_trace.h"
#include "stats.h"
#include "text/alphabet.h"
#include "text/uncertain_string.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path of the traced run ("" = none)
};

/// Workers of the parallel passes: join threads on join_names, client
/// connections (one client thread each) on serve_names.  Their outputs are
/// checked, but no end-to-end metric is timed on them: on the shared
/// 4-vCPU VM the benchmark was sized on, the machine's other tenants slowed
/// multi-threaded runs far more than single-threaded ones.  Over ten seeds
/// the 2-thread join_names figures spread 0.25-0.29 where the 1-thread ones
/// spread 0.15, and in the slow runs 2 threads were barely faster than 1.
inline constexpr int kWorkers = 2;

/// End-to-end metrics, from one worker.  Every workload reports every one
/// of them.
struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  Percentile latency_p50;
  Percentile latency_p99;
  double peak_rss_mb = 0;
  double index_bytes_per_byte = 0;
};
void EmitEndToEnd(const EndToEnd& m, Report* report);

/// Per-layer metrics of the traced run.  Layers a workload does not reach
/// report 0 (and unavailable percentiles say so on their line).
struct LayerMetrics {
  double text_parse_s = 0;
  double index_query_s = 0;
  int64_t index_queries = 0;
  int64_t index_postings_scanned = 0;
  Ratio index_candidate_ratio;
  double index_insert_s = 0;
  double index_build_s = 0;
  double index_mb = 0;
  double filter_freq_build_s = 0;
  double filter_freq_s = 0;
  Ratio filter_freq_pass_ratio;
  double filter_cdf_s = 0;
  Ratio filter_cdf_accept_ratio;
  Ratio filter_cdf_undecided_ratio;
  double verify_s = 0;
  int64_t verify_pairs = 0;
  Percentile verify_pair_ms_p50{50};
  Percentile verify_pair_ms_p99{99};
  Ratio verify_similar_ratio;
  int64_t verify_explored_nodes = 0;
  Ratio join_idle_ratio_t2;
  double join_traced_s = 0;
  double join_unattributed_s = 0;
  Ratio join_trace_overhead_ratio;
  Percentile serve_search_ms_p50{50};
  Percentile serve_search_ms_p99{99};
  Percentile serve_overhead_ms_p50_t1{50};
  double serve_render_us = 0;
  int64_t serve_batches = 0;
  int64_t serve_errors = 0;
  double obs_snapshot_us = 0;
};
void EmitLayerMetrics(const LayerMetrics& m, Report* report);

/// Prints each layer's self time as a share of the traced total, and checks
/// closure: layer self times plus unattributed time equal the total, and
/// no span overflows its parent.  Returns false when closure fails.
bool PrintLayerShares(const SpanTrace& trace, double traced_s);

void RunJoinWorkload(const RunArgs& args, Report* report);
void RunServeWorkload(const RunArgs& args, Report* report);

// --- shared helpers ---------------------------------------------------

/// Generated strings in the paper's notation, one per line: the only input
/// the program is given.
std::string ToText(const std::vector<ujoin::UncertainString>& strings,
                   size_t begin, size_t end);

/// Parses newline-separated text.  With a trace, each Parse call is a
/// "text.parse" span under `parent`.  Returns false on a parse error.
bool ParseLines(const std::string& text, const ujoin::Alphabet& alphabet,
                std::vector<ujoin::UncertainString>* out,
                SpanTrace* trace = nullptr, uint32_t parent = 0);

/// Seed of the dataset used for `round` of a run with seed `seed`.
uint64_t RoundSeed(uint64_t seed, int round);

/// Peak resident set size of this process, in megabytes.
double PeakRssMb();

}  // namespace perfbench

#endif  // UJOIN_PERFBENCH_WORKLOADS_H_
