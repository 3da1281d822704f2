// Observability must not perturb the pipeline: an instrumented join returns
// byte-identical pairs and counters to an uninstrumented one, and the
// work-derived metrics (merged-list lengths, candidate α bounds, explored
// trie nodes) merge to bit-identical histograms for every thread count —
// the probe-ordered fold contract of src/obs/.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/cross_join.h"
#include "join/search.h"
#include "join/self_join.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ujoin {
namespace {

std::vector<UncertainString> SeededCollection(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 11;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

void ExpectIdenticalPairs(const std::vector<JoinPair>& a,
                          const std::vector<JoinPair>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lhs, b[i].lhs) << label << " pair " << i;
    EXPECT_EQ(a[i].rhs, b[i].rhs) << label << " pair " << i;
    EXPECT_EQ(a[i].probability, b[i].probability) << label << " pair " << i;
    EXPECT_EQ(a[i].exact, b[i].exact) << label << " pair " << i;
  }
}

// The work-derived histograms: values depend only on what the pipeline
// computed, never on the clock, so the merged result must be bit-identical
// for every thread count.
const obs::Hist kDeterministicHists[] = {
    obs::Hist::kMergedListLength,
    obs::Hist::kCandidateAlphaPpm,
    obs::Hist::kExploredTrieNodes,
};

// Tests asserting recorded *content* have nothing to observe when the
// instrumentation macros are compiled out (-DUJOIN_OBS=OFF); the
// determinism tests stay meaningful (all-zero recorders fold identically).
#ifdef UJOIN_OBS_DISABLED
#define UJOIN_SKIP_WITHOUT_OBS() \
  GTEST_SKIP() << "recording compiled out (-DUJOIN_OBS=OFF)"
#else
#define UJOIN_SKIP_WITHOUT_OBS() \
  do {                           \
  } while (0)
#endif

// The registry total of flight-event `kind` in a dump of the global
// recorder.
int64_t FlightKindTotal(const char* kind) {
  const std::string path = ::testing::TempDir() + "/join_obs_flight.json";
  EXPECT_TRUE(obs::DumpFlightRecord(path.c_str(), obs::FlightDumpOptions{}));
  std::ifstream in(path);
  std::stringstream dump;
  dump << in.rdbuf();
  // A `"<kind>":` key only occurs in the registry; events spell
  // `"kind":"<kind>"`.
  const std::string text = dump.str();
  const std::string key = std::string("\"") + kind + "\":";
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + key.size()));
}

// Each probe of a join is one in-flight epoch for the watchdog: n strings
// record n query_begin and n query_end events, whatever the thread count.
// First in this file: every thread claims a flight slot for good, so in a
// whole-binary run later tests' workers would exhaust them.
TEST(JoinObsTest, EveryProbeOpensAndClosesOneFlightEpoch) {
  UJOIN_SKIP_WITHOUT_OBS();
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(90, 11);
  for (int threads : {1, 4}) {
    const int64_t begins = FlightKindTotal("query_begin");
    const int64_t ends = FlightKindTotal("query_end");
    JoinOptions options = JoinOptions::Qfct(2, 0.1);
    options.threads = threads;
    ASSERT_TRUE(SimilaritySelfJoin(strings, alphabet, options).ok());
    EXPECT_EQ(FlightKindTotal("query_begin") - begins, 90) << threads;
    EXPECT_EQ(FlightKindTotal("query_end") - ends, 90) << threads;
  }
  EXPECT_EQ(obs::GlobalFlightRecorder()->dropped_events(), 0);
}

TEST(JoinObsTest, InstrumentationDoesNotChangeResults) {
  UJOIN_SKIP_WITHOUT_OBS();
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(90, 11);

  JoinOptions plain = JoinOptions::Qfct(2, 0.1);
  plain.threads = 2;
  Result<SelfJoinResult> baseline = SimilaritySelfJoin(strings, alphabet,
                                                       plain);
  ASSERT_TRUE(baseline.ok());

  obs::Recorder recorder;
  obs::TraceRecorder trace;
  JoinOptions instrumented = plain;
  instrumented.metrics = &recorder;
  instrumented.trace = &trace;
  Result<SelfJoinResult> observed =
      SimilaritySelfJoin(strings, alphabet, instrumented);
  ASSERT_TRUE(observed.ok());

  ExpectIdenticalPairs(baseline->pairs, observed->pairs, "instrumented");
  EXPECT_EQ(baseline->stats.verified_pairs, observed->stats.verified_pairs);
  EXPECT_EQ(baseline->stats.qgram_candidates, observed->stats.qgram_candidates);
  EXPECT_EQ(baseline->stats.index_stats.postings_scanned,
            observed->stats.index_stats.postings_scanned);

  // The recorder saw real work...
  EXPECT_EQ(recorder.counter(obs::Counter::kProbes),
            static_cast<int64_t>(strings.size()));
  EXPECT_GT(recorder.hist(obs::Hist::kMergedListLength).count(), 0);
  EXPECT_EQ(recorder.hist(obs::Hist::kVerifyLatencyNs).count(),
            baseline->stats.verified_pairs);
  EXPECT_EQ(recorder.gauge(obs::Gauge::kThreads), 2);
  EXPECT_EQ(recorder.gauge(obs::Gauge::kCollectionSize),
            static_cast<int64_t>(strings.size()));
  // ...and the trace captured the driver's and the probes' spans.
  EXPECT_GT(trace.num_events(), 0u);
  const std::string trace_json = trace.ToJson();
  for (const char* span :
       {"index_insert", "freq_summaries", "probe", "qgram_probe"}) {
    EXPECT_NE(trace_json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
}

TEST(JoinObsTest, FunnelAndWorldCountMatchPipelineStats) {
  UJOIN_SKIP_WITHOUT_OBS();
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(90, 11);

  obs::Recorder recorder;
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.threads = 2;
  options.metrics = &recorder;
  Result<SelfJoinResult> result = SimilaritySelfJoin(strings, alphabet,
                                                     options);
  ASSERT_TRUE(result.ok());
  const JoinStats& stats = result->stats;

  // The funnel counters are the JoinStats attribution, re-expressed as
  // entered/survived edges per filter stage.
  EXPECT_EQ(recorder.funnel_entered(obs::FunnelStage::kQgram),
            static_cast<int64_t>(stats.length_compatible_pairs));
  EXPECT_EQ(recorder.funnel_survived(obs::FunnelStage::kQgram),
            static_cast<int64_t>(stats.qgram_candidates));
  EXPECT_EQ(recorder.funnel_entered(obs::FunnelStage::kFreqDistance),
            static_cast<int64_t>(stats.qgram_candidates));
  EXPECT_EQ(recorder.funnel_survived(obs::FunnelStage::kFreqDistance),
            static_cast<int64_t>(stats.freq_candidates));
  EXPECT_EQ(recorder.funnel_entered(obs::FunnelStage::kCdfBound),
            static_cast<int64_t>(stats.freq_candidates));
  EXPECT_EQ(recorder.funnel_survived(obs::FunnelStage::kCdfBound),
            static_cast<int64_t>(stats.freq_candidates - stats.cdf_rejected));
  // Pairs the CDF bound accepts outright never reach the verifier, so the
  // verify stage sees only the undecided remainder.
  EXPECT_EQ(recorder.funnel_entered(obs::FunnelStage::kVerify),
            stats.verified_pairs);
  EXPECT_EQ(recorder.funnel_survived(obs::FunnelStage::kVerify),
            stats.result_pairs - stats.cdf_accepted);
  EXPECT_EQ(static_cast<int64_t>(result->pairs.size()), stats.result_pairs);
  // Monotone shrinking through every stage.
  for (int s = 0; s < obs::kNumFunnelStages; ++s) {
    const auto stage = static_cast<obs::FunnelStage>(s);
    EXPECT_GE(recorder.funnel_entered(stage),
              recorder.funnel_survived(stage))
        << obs::FunnelStageInfo(stage).name;
  }
  // World counts recorded once per verification, all positive.
  const obs::Histogram& worlds = recorder.hist(obs::Hist::kVerifyWorldCount);
  EXPECT_EQ(worlds.count(), static_cast<int64_t>(stats.verified_pairs));
  EXPECT_GT(worlds.min(), 0);
}

TEST(JoinObsTest, FunnelIsBitIdenticalAcrossThreadCounts) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(80, 29);

  std::vector<obs::Recorder> recorders;
  for (int threads : {1, 2, 4, 8}) {
    JoinOptions options = JoinOptions::Qfct(2, 0.15);
    options.threads = threads;
      obs::Recorder recorder;
    options.metrics = &recorder;
    Result<SelfJoinResult> result =
        SimilaritySelfJoin(strings, alphabet, options);
    ASSERT_TRUE(result.ok()) << threads;
    recorders.push_back(recorder);
  }
  for (size_t i = 1; i < recorders.size(); ++i) {
    for (int s = 0; s < obs::kNumFunnelStages; ++s) {
      const auto stage = static_cast<obs::FunnelStage>(s);
      EXPECT_EQ(recorders[i].funnel_entered(stage),
                recorders[0].funnel_entered(stage))
          << "threads run " << i << " stage "
          << obs::FunnelStageInfo(stage).name;
      EXPECT_EQ(recorders[i].funnel_survived(stage),
                recorders[0].funnel_survived(stage))
          << "threads run " << i << " stage "
          << obs::FunnelStageInfo(stage).name;
    }
    // The world-count histogram is work-derived too: bit-identical fold.
    EXPECT_TRUE(recorders[i].hist(obs::Hist::kVerifyWorldCount) ==
                recorders[0].hist(obs::Hist::kVerifyWorldCount))
        << "threads run " << i;
  }
}

TEST(JoinObsTest, ProbeSpanSamplingShrinksTracesDeterministically) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(90, 11);
  constexpr uint64_t kSeed = 0x5eed;

  auto run = [&](int threads, int64_t sample_n) {
    obs::TraceRecorder trace;
    if (sample_n > 1) trace.SetProbeSampling(sample_n, kSeed);
    JoinOptions options = JoinOptions::Qfct(2, 0.1);
    options.threads = threads;
      options.trace = &trace;
    Result<SelfJoinResult> result =
        SimilaritySelfJoin(strings, alphabet, options);
    EXPECT_TRUE(result.ok());
    return trace;
  };

  const obs::TraceRecorder full = run(2, 1);
  const obs::TraceRecorder sampled = run(2, 4);
  EXPECT_EQ(full.probes_seen(), static_cast<int64_t>(strings.size()));
  EXPECT_EQ(full.probes_sampled(), full.probes_seen());
  EXPECT_EQ(sampled.probes_seen(), full.probes_seen());
  // ~1-in-4 probes keep their spans; generous band for a 90-probe run.
  EXPECT_GT(sampled.probes_sampled(), 0);
  EXPECT_LT(sampled.probes_sampled(), full.probes_sampled() / 2);
  EXPECT_LT(sampled.num_events(), full.num_events());
  // Driver spans always survive sampling.
  const std::string json = sampled.ToJson();
  for (const char* span : {"index_insert", "freq_summaries"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span;
  }
  EXPECT_NE(json.find("\"probe_span_sample_n\":4"), std::string::npos);

  // The sampling decision depends only on the global probe index, so the
  // sampled probe set — and the probe-span event count — is thread-count
  // invariant.
  for (int threads : {1, 4}) {
    const obs::TraceRecorder other = run(threads, 4);
    EXPECT_EQ(other.probes_sampled(), sampled.probes_sampled()) << threads;
    EXPECT_EQ(other.num_events(), sampled.num_events()) << threads;
  }
}

TEST(JoinObsTest, WorkHistogramsAreBitIdenticalAcrossThreadCounts) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(80, 29);

  std::vector<obs::Recorder> recorders;
  for (int threads : {1, 2, 4, 8}) {
    JoinOptions options = JoinOptions::Qfct(2, 0.15);
    options.threads = threads;
      obs::Recorder recorder;
    options.metrics = &recorder;
    Result<SelfJoinResult> result =
        SimilaritySelfJoin(strings, alphabet, options);
    ASSERT_TRUE(result.ok()) << threads;
    recorders.push_back(recorder);
  }
  for (size_t i = 1; i < recorders.size(); ++i) {
    for (obs::Hist h : kDeterministicHists) {
      EXPECT_TRUE(recorders[i].hist(h) == recorders[0].hist(h))
          << "threads run " << i << " hist " << obs::HistInfo(h).name;
    }
    for (int c = 0; c < obs::kNumCounters; ++c) {
      const obs::Counter counter = static_cast<obs::Counter>(c);
      // Wall-clock kernel timings (unit "ns") are work counters, not event
      // counters: their values depend on the machine and scheduling, so only
      // the unit-less event counts are bit-identical across thread counts.
      if (std::string_view(obs::CounterInfo(counter).unit) == "ns") continue;
      EXPECT_EQ(recorders[i].counter(counter), recorders[0].counter(counter))
          << "threads run " << i << " counter "
          << obs::CounterInfo(counter).name;
    }
    EXPECT_EQ(recorders[i].gauge(obs::Gauge::kCollectionSize),
              recorders[0].gauge(obs::Gauge::kCollectionSize));
  }
}

TEST(JoinObsTest, ProgressCallbackSeesMonotoneCompletion) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(150, 3);

  struct Progress {
    std::vector<JoinProgress> snapshots;
  } progress;
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.threads = 2;
  options.progress_fn = [](const JoinProgress& p, void* user) {
    static_cast<Progress*>(user)->snapshots.push_back(p);
  };
  options.progress_user = &progress;
  Result<SelfJoinResult> result = SimilaritySelfJoin(strings, alphabet,
                                                     options);
  ASSERT_TRUE(result.ok());

  // One snapshot every 64 folded probes and one at the end.
  ASSERT_EQ(progress.snapshots.size(), 3u);
  uint64_t prev_processed = 0;
  for (const JoinProgress& p : progress.snapshots) {
    EXPECT_EQ(p.total, strings.size());
    EXPECT_TRUE(p.processed % 64 == 0 || p.processed == p.total)
        << p.processed;
    EXPECT_GE(p.processed, prev_processed);
    EXPECT_LE(p.processed, p.total);
    EXPECT_GE(p.elapsed_seconds, 0.0);
    prev_processed = p.processed;
  }
  EXPECT_EQ(progress.snapshots.back().processed, strings.size());
  EXPECT_EQ(progress.snapshots.back().result_pairs, result->pairs.size());
}

TEST(JoinObsTest, SearchManyMetricsAreThreadCountInvariant) {
  UJOIN_SKIP_WITHOUT_OBS();
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> strings = SeededCollection(70, 17);
  const std::vector<UncertainString> queries = SeededCollection(12, 23);

  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(strings, alphabet, options);
  ASSERT_TRUE(searcher.ok());

  std::vector<obs::Recorder> recorders;
  std::vector<std::vector<std::vector<SearchHit>>> all_hits;
  for (int threads : {1, 2, 4}) {
    obs::Recorder recorder;
    JoinStats stats;
    Result<std::vector<std::vector<SearchHit>>> hits =
        searcher->SearchMany(queries, threads, &stats, &recorder);
    ASSERT_TRUE(hits.ok()) << threads;
    recorders.push_back(recorder);
    all_hits.push_back(*hits);
    EXPECT_EQ(recorder.counter(obs::Counter::kQueries),
              static_cast<int64_t>(queries.size()));
  }
  for (size_t i = 1; i < recorders.size(); ++i) {
    EXPECT_EQ(all_hits[i].size(), all_hits[0].size());
    for (size_t q = 0; q < all_hits[0].size(); ++q) {
      EXPECT_EQ(all_hits[i][q].size(), all_hits[0][q].size()) << q;
    }
    for (obs::Hist h : kDeterministicHists) {
      EXPECT_TRUE(recorders[i].hist(h) == recorders[0].hist(h))
          << obs::HistInfo(h).name;
    }
  }
}

TEST(JoinObsTest, CrossJoinRecordsMetricsAndTrace) {
  UJOIN_SKIP_WITHOUT_OBS();
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> left = SeededCollection(40, 31);
  const std::vector<UncertainString> right = SeededCollection(25, 37);

  obs::Recorder recorder;
  obs::TraceRecorder trace;
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.threads = 2;
  options.metrics = &recorder;
  options.trace = &trace;
  Result<CrossJoinResult> with_obs =
      SimilarityJoin(left, right, alphabet, options);
  ASSERT_TRUE(with_obs.ok());

  JoinOptions plain = JoinOptions::Qfct(2, 0.1);
  plain.threads = 2;
  Result<CrossJoinResult> baseline =
      SimilarityJoin(left, right, alphabet, plain);
  ASSERT_TRUE(baseline.ok());
  ExpectIdenticalPairs(baseline->pairs, with_obs->pairs, "cross");

  EXPECT_EQ(recorder.counter(obs::Counter::kProbes),
            static_cast<int64_t>(std::max(left.size(), right.size())));
  EXPECT_EQ(recorder.gauge(obs::Gauge::kCollectionSize),
            static_cast<int64_t>(left.size() + right.size()));
  EXPECT_GT(trace.num_events(), 0u);
  EXPECT_NE(trace.ToJson().find("\"index_build\""), std::string::npos);
}

}  // namespace
}  // namespace ujoin
