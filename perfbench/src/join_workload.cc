// join_names: verification-heavy self-joins of generated names.  See
// perfbench/README.md for why it was chosen.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>

#include "filter/cdf_filter.h"
#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/pair_verifier.h"
#include "join/search.h"
#include "join/self_join.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ujoin::JoinOptions;
using ujoin::JoinPair;
using ujoin::UncertainString;

// Rounds of an untimed run, and set-ups timed per round.
constexpr int kMinRounds = 2;
constexpr int kMaxRounds = 64;
constexpr int kSetupReps = 2;
// Datasets the traced run replays: two leave over 1,000 verified pairs,
// enough for verify.pair_ms.p99.
constexpr int kTracedRounds = 2;

struct JoinWorkload {
  ujoin::DatasetOptions data;
  JoinOptions options;
};

// At most 4 uncertain positions per name: the cost of verifying one pair
// grows with the worlds of both strings, and with up to 6 a few pairs per
// dataset took up to 2 s.  Those pairs set how long a dataset took: a
// 5,000-name t1 join ranged from 5.3 to 9.3 s over 15 seeds (coefficient
// of variation 0.15).  With 4 the variation is 0.06, and verification is
// still over 80% of traced time.
JoinWorkload MakeWorkload() {
  JoinWorkload w;
  w.data.kind = ujoin::DatasetOptions::Kind::kNames;
  w.data.size = 5000;
  w.data.theta = 0.2;
  w.data.gamma = 5;
  w.data.max_uncertain_positions = 4;
  w.options = JoinOptions::Qfct(/*k=*/2, /*tau=*/0.1, /*q=*/3);
  return w;
}

// Latency of every string of one join: the time from text in to the wave
// boundary (JoinOptions::progress_fn) at which the join reports the string
// processed, i.e. its probe done and its pairs with every earlier string
// known.  Strings are scanned in length order, in waves of 64, so the p50
// is the time until half of the input has been probed.
struct ProgressClock {
  const ujoin::Timer* since = nullptr;
  uint64_t processed = 0;
  std::vector<double> latency_ms;  // one per processed string
  static void Record(const ujoin::JoinProgress& progress, void* user) {
    ProgressClock* self = static_cast<ProgressClock*>(user);
    const double ms = 1e3 * self->since->ElapsedSeconds();
    self->latency_ms.insert(self->latency_ms.end(),
                            progress.processed - self->processed, ms);
    self->processed = progress.processed;
  }
};

struct TimedJoin {
  bool ok = false;
  double wall_s = 0.0;  // text in, pair list out (parse included)
  ujoin::SelfJoinResult result;
  ProgressClock progress;
};

TimedJoin RunJoin(const std::string& text, const ujoin::Alphabet& alphabet,
                  JoinOptions options, int threads) {
  TimedJoin out;
  options.threads = threads;
  ujoin::Timer timer;
  out.progress.since = &timer;
  out.progress.latency_ms.reserve(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')));
  options.progress_fn = &ProgressClock::Record;
  options.progress_user = &out.progress;
  std::vector<UncertainString> collection;
  timer.Reset();
  if (!ParseLines(text, alphabet, &collection)) return out;
  ujoin::Result<ujoin::SelfJoinResult> result =
      ujoin::SimilaritySelfJoin(collection, alphabet, options);
  out.wall_s = timer.ElapsedSeconds();
  out.progress.since = nullptr;
  if (!result.ok()) {
    std::printf("join error: %s\n", result.status().ToString().c_str());
    return out;
  }
  out.result = std::move(result).value();
  out.ok = true;
  return out;
}

// Byte-identical pair lists: ids, probability bits and exact flags.
bool SamePairs(const std::vector<JoinPair>& a, const std::vector<JoinPair>& b,
               std::string* diff) {
  if (a.size() != b.size()) {
    *diff = std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
            " pairs";
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].lhs != b[i].lhs || a[i].rhs != b[i].rhs ||
        a[i].exact != b[i].exact ||
        std::memcmp(&a[i].probability, &b[i].probability, sizeof(double)) !=
            0) {
      *diff = "pair " + std::to_string(i) + " (" + std::to_string(a[i].lhs) +
              "," + std::to_string(a[i].rhs) + ") differs";
      return false;
    }
  }
  return true;
}

void CheckSame(const std::vector<JoinPair>& a, const std::vector<JoinPair>& b,
               const char* what, Report* report) {
  std::string diff;
  const bool same = SamePairs(a, b, &diff);
  if (!same) report->Mismatch(std::string(what) + ": " + diff);
  report->Attempt(same);
}

// --- traced replay ------------------------------------------------------

// Counters of the traced replays, summed over the datasets replayed.
struct ReplayOutcome {
  std::vector<JoinPair> pairs;  // of the latest replay
  double total_s = 0.0;
  int64_t length_compatible = 0;
  int64_t candidates = 0;
  int64_t freq_evaluated = 0;
  int64_t freq_passed = 0;
  int64_t cdf_evaluated = 0;
  int64_t cdf_accepted = 0;
  int64_t cdf_undecided = 0;
  int64_t verified = 0;
  int64_t similar = 0;
  ujoin::IndexQueryStats index_stats;
  ujoin::VerifyStats verify_stats;
  size_t index_bytes = 0;
};

// The paper's sequential scan, made call by call through each layer's
// public functions with one span per call: strings in length order; each
// probes the index buckets [len-k, len] restricted to smaller positions,
// its candidates pass the frequency and CDF filters and, when undecided,
// exact verification; then the string is inserted.  It reports the same
// pairs as SimilaritySelfJoin for every thread count.  Adds its counters
// to `*acc` and leaves its pairs there; false when a call fails.
bool ReplayJoin(const std::string& text, const ujoin::Alphabet& alphabet,
                const JoinOptions& options, SpanTrace* trace,
                ReplayOutcome* acc) {
  ReplayOutcome& out = *acc;
  out.pairs.clear();
  const int64_t start_ns = trace->NowNs();
  const uint32_t root = trace->Begin("join.replay", Layer::kReplay, 0, -1);
  std::vector<UncertainString> collection;
  if (!ParseLines(text, alphabet, &collection, trace, root)) return false;

  const uint32_t n = static_cast<uint32_t>(collection.size());
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return collection[a].length() < collection[b].length();
  });
  std::vector<int> lengths(n);
  for (uint32_t i = 0; i < n; ++i) lengths[i] = collection[order[i]].length();

  const int k = options.k;
  const double tau = options.tau;
  const double qgram_tau = options.qgram_probabilistic_pruning ? tau : 0.0;
  ujoin::InvertedSegmentIndex index(k, options.q, options.probe);
  ujoin::QueryWorkspace workspace;
  std::vector<ujoin::FrequencySummary> summaries(n);
  std::vector<uint32_t> candidates;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t probe = trace->Begin("join.probe", Layer::kReplay, root, i);
    const UncertainString& r = collection[order[i]];
    const int len = lengths[i];
    {
      ScopedSpan s(trace, "filter.freq_build", Layer::kFilter, probe, i);
      summaries[i] = ujoin::FrequencySummary::Build(r, alphabet);
    }
    out.length_compatible +=
        (lengths.begin() + i) -
        std::lower_bound(lengths.begin(), lengths.begin() + i, len - k);
    candidates.clear();
    for (int l = std::max(1, len - k); l <= len; ++l) {
      const uint32_t q = trace->Begin("index.query", Layer::kIndex, probe, i);
      const std::span<const ujoin::IndexCandidate> found =
          index.Query(r, l, qgram_tau, &workspace, &out.index_stats,
                      /*id_limit=*/i);
      trace->End(q);
      for (const ujoin::IndexCandidate& c : found) candidates.push_back(c.id);
    }
    out.candidates += static_cast<int64_t>(candidates.size());

    ujoin::internal::PairVerifier verifier(r, options);
    for (uint32_t j : candidates) {
      const UncertainString& s = collection[order[j]];
      ++out.freq_evaluated;
      const uint32_t fs = trace->Begin("filter.freq", Layer::kFilter, probe, i);
      const ujoin::FreqFilterOutcome freq =
          ujoin::EvaluateFreqFilter(summaries[i], summaries[j], k);
      trace->End(fs);
      if (!freq.Survives(k, tau)) continue;
      ++out.freq_passed;

      ++out.cdf_evaluated;
      const uint32_t cs = trace->Begin("filter.cdf", Layer::kFilter, probe, i);
      const ujoin::CdfFilterOutcome cdf =
          ujoin::EvaluateCdfFilter(r, s, k, tau);
      trace->End(cs);
      uint32_t a = order[i];
      uint32_t b = order[j];
      if (a > b) std::swap(a, b);
      if (cdf.decision == ujoin::CdfDecision::kReject) continue;
      if (cdf.decision == ujoin::CdfDecision::kAccept) {
        ++out.cdf_accepted;
        out.pairs.push_back(
            JoinPair{a, b, cdf.bounds.lower[static_cast<size_t>(k)], false});
        continue;
      }
      ++out.cdf_undecided;

      ++out.verified;
      const uint32_t vs = trace->Begin("verify.pair", Layer::kVerify, probe, i);
      ujoin::Result<ujoin::ThresholdVerdict> verdict =
          verifier.Decide(s, tau, &out.verify_stats);
      trace->End(vs);
      if (!verdict.ok()) return false;
      if (verdict->similar) {
        ++out.similar;
        out.pairs.push_back(JoinPair{a, b, verdict->lower, verdict->exact});
      }
    }
    {
      ScopedSpan s(trace, "index.insert", Layer::kIndex, probe, i);
      if (!index.Insert(i, r).ok()) return false;
    }
    trace->End(probe);
  }
  trace->End(root);
  out.total_s += 1e-9 * static_cast<double>(trace->NowNs() - start_ns);
  out.index_bytes = std::max(out.index_bytes, index.MemoryUsage());
  std::sort(out.pairs.begin(), out.pairs.end());
  return true;
}

void RunTraced(const JoinWorkload& w, const RunArgs& args, Report* report) {
  // Each traced dataset is first joined untraced at t1 and at t2: the
  // overhead base, the idle ratio, and the reference pair lists for the
  // replay.  The first dataset's t2 join runs twice, and the idle ratio
  // comes from the warm joins.
  SpanTrace trace;
  ReplayOutcome replay;
  double untraced_t1_s = 0.0;
  Ratio idle;
  for (int round = 0; round < kTracedRounds; ++round) {
    ujoin::DatasetOptions data_options = w.data;
    data_options.seed = RoundSeed(args.seed, round);
    const ujoin::Dataset data = ujoin::GenerateDataset(data_options);
    const std::string text = ToText(data.strings, 0, data.strings.size());
    const TimedJoin t1 = RunJoin(text, data.alphabet, w.options, 1);
    report->Attempt(t1.ok);
    if (round == 0) {
      const TimedJoin warm =
          RunJoin(text, data.alphabet, w.options, kWorkers);
      report->Attempt(warm.ok);
      CheckSame(t1.result.pairs, warm.result.pairs, "t1 vs warm-up t2 pairs",
                report);
    }
    const TimedJoin t2 = RunJoin(text, data.alphabet, w.options, kWorkers);
    report->Attempt(t2.ok);
    if (!t1.ok || !t2.ok) {
      report->Mismatch("join failed");
      return;
    }
    CheckSame(t1.result.pairs, t2.result.pairs, "t1 vs t2 pairs", report);
    untraced_t1_s += t1.wall_s;
    const ujoin::JoinStats& s2 = t2.result.stats;
    const double stage_s = s2.qgram_time + s2.freq_time + s2.cdf_time +
                           s2.verify_time + s2.index_build_time;
    idle.num += kWorkers * s2.total_time - stage_s;
    idle.base += kWorkers * s2.total_time;

    const bool ok = ReplayJoin(text, data.alphabet, w.options, &trace, &replay);
    report->Attempt(ok);
    if (!ok) {
      report->Mismatch("traced replay failed");
      return;
    }
    CheckSame(t1.result.pairs, replay.pairs, "t1 vs traced replay pairs",
              report);
    std::printf("dataset %d: %zu pairs (t1, t2 and traced replay agree: %s)\n",
                round, replay.pairs.size(), report->correct() ? "yes" : "no");
  }

  LayerMetrics m;
  const std::vector<double> self = trace.SelfSecondsByLayer();
  m.text_parse_s = trace.NameSeconds("text.parse");
  m.index_query_s = trace.NameSeconds("index.query");
  m.index_queries = trace.Count("index.query");
  m.index_postings_scanned = replay.index_stats.postings_scanned;
  m.index_candidate_ratio = Ratio{static_cast<double>(replay.candidates),
                                  static_cast<double>(replay.length_compatible)};
  m.index_insert_s = trace.NameSeconds("index.insert");
  m.index_mb = static_cast<double>(replay.index_bytes) / 1e6;
  m.filter_freq_build_s = trace.NameSeconds("filter.freq_build");
  m.filter_freq_s = trace.NameSeconds("filter.freq");
  m.filter_freq_pass_ratio = Ratio{static_cast<double>(replay.freq_passed),
                                   static_cast<double>(replay.freq_evaluated)};
  m.filter_cdf_s = trace.NameSeconds("filter.cdf");
  m.filter_cdf_accept_ratio = Ratio{static_cast<double>(replay.cdf_accepted),
                                    static_cast<double>(replay.cdf_evaluated)};
  m.filter_cdf_undecided_ratio =
      Ratio{static_cast<double>(replay.cdf_undecided),
            static_cast<double>(replay.cdf_evaluated)};
  m.verify_s = self[static_cast<size_t>(Layer::kVerify)];
  m.verify_pairs = replay.verified;
  const std::vector<double> pair_ms = trace.DurationsMs("verify.pair");
  m.verify_pair_ms_p50 = ComputePercentile(pair_ms, 50);
  m.verify_pair_ms_p99 = ComputePercentile(pair_ms, 99);
  m.verify_similar_ratio = Ratio{static_cast<double>(replay.similar),
                                 static_cast<double>(replay.verified)};
  m.verify_explored_nodes = replay.verify_stats.explored_s_nodes;
  m.join_idle_ratio_t2 = idle;
  m.join_traced_s = trace.RootSeconds();
  m.join_unattributed_s = self[static_cast<size_t>(Layer::kReplay)];
  m.join_trace_overhead_ratio = Ratio{replay.total_s, untraced_t1_s};
  EmitLayerMetrics(m, report);

  if (!PrintLayerShares(trace, m.join_traced_s)) {
    report->Mismatch("traced layer times do not add up to the traced total");
  }
  if (!args.trace_out.empty()) {
    if (trace.WriteChromeJson(args.trace_out)) {
      std::printf("trace %zu spans written to %s\n", trace.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::printf("trace could not be written to %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace

void RunJoinWorkload(const RunArgs& args, Report* report) {
  const JoinWorkload w = MakeWorkload();
  std::printf("workload %s: %d strings per dataset, k=%d tau=%g q=%d\n",
              args.workload.c_str(), w.data.size, w.options.k, w.options.tau,
              w.options.q);

  if (args.trace) {
    RunTraced(w, args, report);
    return;
  }

  // Rounds run until --seconds have passed (at least kMinRounds), each on
  // its own dataset seeded from (--seed, round), so one run averages over
  // several inputs.  A round starts while half a mean round still fits.
  std::vector<double> setup_s, join_s, index_ratio;
  std::vector<std::vector<double>> latency_ms;  // per join
  ujoin::Timer run_clock;
  int rounds = 0;
  for (; rounds < kMaxRounds; ++rounds) {
    const double elapsed = run_clock.ElapsedSeconds();
    if (rounds >= kMinRounds &&
        elapsed + 0.5 * elapsed / rounds > static_cast<double>(args.seconds)) {
      break;
    }
    const int round = rounds;
    ujoin::DatasetOptions data_options = w.data;
    data_options.seed = RoundSeed(args.seed, round);
    const ujoin::Dataset data = ujoin::GenerateDataset(data_options);
    const std::string text = ToText(data.strings, 0, data.strings.size());

    // Set-up is the time to ready an index over the input: parse plus
    // SimilaritySearcher::Create, kSetupReps times a round; the median over
    // the run is reported.
    for (int rep = 0; rep < kSetupReps; ++rep) {
      std::vector<UncertainString> parsed;
      ujoin::Timer timer;
      bool ok = ParseLines(text, data.alphabet, &parsed);
      ok = ok && ujoin::SimilaritySearcher::Create(std::move(parsed),
                                                   data.alphabet, w.options)
                     .ok();
      setup_s.push_back(timer.ElapsedSeconds());
      report->Attempt(ok);
      if (!ok) report->Mismatch("input does not index");
    }

    TimedJoin t1 = RunJoin(text, data.alphabet, w.options, 1);
    report->Attempt(t1.ok);
    if (!t1.ok) {
      report->Mismatch("join failed");
      return;
    }
    // The first dataset is also joined, untimed, with kWorkers threads,
    // whose pair list must equal the 1-thread one.
    if (round == 0) {
      const TimedJoin t2 = RunJoin(text, data.alphabet, w.options, kWorkers);
      report->Attempt(t2.ok);
      CheckSame(t1.result.pairs, t2.result.pairs, "t1 vs t2 pairs", report);
    }
    join_s.push_back(t1.wall_s);
    latency_ms.push_back(std::move(t1.progress.latency_ms));
    index_ratio.push_back(
        static_cast<double>(t1.result.stats.peak_index_memory) /
        static_cast<double>(text.size()));
    std::printf("round %d: %zu pairs, set-up %.3f s, join %.3f s\n", round,
                t1.result.pairs.size(), setup_s.back(), t1.wall_s);
  }

  // Throughput is work over time across all rounds: strings joined per
  // second of joining, so a dataset that needs more verification weighs by
  // its time rather than skewing a median.
  EndToEnd m;
  const double strings = static_cast<double>(w.data.size) * rounds;
  m.setup_s = Median(setup_s);
  m.ops_per_s = strings / std::accumulate(join_s.begin(), join_s.end(), 0.0);
  // Latency percentiles are read within each join and averaged over the
  // joins, like throughput: pooled, the p99 was the slowest join's.
  m.latency_p50 = MeanPercentile(latency_ms, 50);
  m.latency_p99 = MeanPercentile(latency_ms, 99);
  m.peak_rss_mb = PeakRssMb();
  m.index_bytes_per_byte = Median(index_ratio);
  std::printf("rounds %d in %.1f s\n", rounds, run_clock.ElapsedSeconds());
  EmitEndToEnd(m, report);
}

}  // namespace perfbench
