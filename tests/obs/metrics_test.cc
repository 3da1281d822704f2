#include "obs/metrics.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/test_util.h"
#include "util/rng.h"

namespace ujoin {
namespace obs {
namespace {

TEST(HistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(Histogram::BucketIndex(-5), 0);
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()), 63);
}

TEST(HistogramTest, BucketLowerBoundInvertsBucketIndex) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0);
  for (int b = 1; b < Histogram::kNumBuckets; ++b) {
    const int64_t lo = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketIndex(lo), b);
    if (b >= 2) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), b - 1);
    }
  }
}

TEST(HistogramTest, RecordTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  h.Record(5);
  h.Record(100);
  h.Record(0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 105);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(5)), 1);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(100)), 1);
  EXPECT_EQ(h.bucket(0), 1);
}

TEST(HistogramTest, MergeAddsStateAndClearResets) {
  Histogram a, b;
  a.Record(3);
  a.Record(9);
  b.Record(1);
  b.Record(200);
  Histogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 4);
  EXPECT_EQ(merged.sum(), 213);
  EXPECT_EQ(merged.min(), 1);
  EXPECT_EQ(merged.max(), 200);

  merged.Clear();
  EXPECT_EQ(merged, Histogram());
}

TEST(HistogramTest, PercentileIsWithinOnePowerOfTwoAndClamped) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Record(v);
  // p0..p100 are monotone, clamped to [min, max], and each estimate is the
  // lower bound of the bucket holding the true quantile.
  int64_t prev = 0;
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const int64_t est = h.Percentile(p);
    EXPECT_GE(est, h.min());
    EXPECT_LE(est, h.max());
    EXPECT_GE(est, prev);
    prev = est;
    const int64_t true_q =
        std::max<int64_t>(1, static_cast<int64_t>(p * 1000));
    EXPECT_LE(est, true_q);
    EXPECT_GT(est * 2, true_q / 2);
  }
  // Degenerate: single value.
  Histogram one;
  one.Record(777);
  EXPECT_EQ(one.Percentile(0.5), 777);
  EXPECT_EQ(one.Percentile(1.0), 777);
}

TEST(MetricRegistryTest, NamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  for (int i = 0; i < kNumHists; ++i) {
    const MetricInfo& info = HistInfo(static_cast<Hist>(i));
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_STRNE(info.unit, "");
    EXPECT_STRNE(info.help, "");
  }
  for (int i = 0; i < kNumCounters; ++i) {
    const MetricInfo& info = CounterInfo(static_cast<Counter>(i));
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  for (int i = 0; i < kNumGauges; ++i) {
    const MetricInfo& info = GaugeInfo(static_cast<Gauge>(i));
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  for (int i = 0; i < kNumFunnelStages; ++i) {
    const MetricInfo& info = FunnelStageInfo(static_cast<FunnelStage>(i));
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
    EXPECT_STRNE(info.unit, "");
    EXPECT_STRNE(info.help, "");
  }
  for (const std::string& name : names) {
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    }
  }
}

TEST(RecorderTest, GaugeMergeTakesMaxCountersAdd) {
  Recorder a, b;
  a.SetGauge(Gauge::kThreads, 4);
  b.SetGauge(Gauge::kThreads, 2);
  a.AddCounter(Counter::kProbes, 10);
  b.AddCounter(Counter::kProbes, 5);
  a.Merge(b);
  EXPECT_EQ(a.gauge(Gauge::kThreads), 4);
  EXPECT_EQ(a.counter(Counter::kProbes), 15);

  // SetGauge itself keeps the maximum.
  Recorder c;
  c.SetGauge(Gauge::kCollectionSize, 64);
  c.SetGauge(Gauge::kCollectionSize, 32);
  EXPECT_EQ(c.gauge(Gauge::kCollectionSize), 64);
}

TEST(RecorderTest, FunnelAccumulatesAndMergesPerStage) {
  Recorder a, b;
  a.AddFunnel(FunnelStage::kQgram, 100, 10);
  a.AddFunnel(FunnelStage::kQgram, 50, 5);
  b.AddFunnel(FunnelStage::kQgram, 7, 3);
  b.AddFunnel(FunnelStage::kVerify, 4, 2);
  a.Merge(b);
  EXPECT_EQ(a.funnel_entered(FunnelStage::kQgram), 157);
  EXPECT_EQ(a.funnel_survived(FunnelStage::kQgram), 18);
  EXPECT_EQ(a.funnel_entered(FunnelStage::kVerify), 4);
  EXPECT_EQ(a.funnel_survived(FunnelStage::kVerify), 2);
  EXPECT_EQ(a.funnel_entered(FunnelStage::kFreqDistance), 0);
  EXPECT_EQ(a.funnel_survived(FunnelStage::kCdfBound), 0);
}

// The determinism property the pipeline relies on: folding per-probe
// recorders in ANY order produces a bit-identical Recorder — and therefore a
// byte-identical ToJson — because all state is integer sums and maxes.
TEST(RecorderTest, MergeIsOrderIndependentAndToJsonByteStable) {
  Rng rng(41);
  // Simulate 32 probes' recorders with random workloads.
  std::vector<Recorder> locals;
  for (int probe = 0; probe < 32; ++probe) {
    Recorder r;
    const int events = 1 + static_cast<int>(rng.Uniform(50));
    for (int e = 0; e < events; ++e) {
      r.RecordHist(Hist::kVerifyLatencyNs,
                   static_cast<int64_t>(rng.Uniform(1u << 20)));
      r.RecordHist(Hist::kMergedListLength,
                   static_cast<int64_t>(rng.Uniform(5000)));
      r.RecordHist(Hist::kCandidateAlphaPpm,
                   static_cast<int64_t>(rng.Uniform(1000001)));
    }
    r.AddCounter(Counter::kProbes, events);
    r.SetGauge(Gauge::kPeakIndexMemoryBytes,
               static_cast<int64_t>(rng.Uniform(1u << 24)));
    for (int s = 0; s < kNumFunnelStages; ++s) {
      const int64_t entered = static_cast<int64_t>(rng.Uniform(1000));
      r.AddFunnel(static_cast<FunnelStage>(s), entered,
                  static_cast<int64_t>(rng.Uniform(
                      static_cast<uint64_t>(entered) + 1)));
    }
    locals.push_back(r);
  }

  Recorder in_order;
  for (const Recorder& r : locals) in_order.Merge(r);
  const std::string reference_json = in_order.ToJson();

  // Shuffled fold orders — simulating 1/2/4/8-thread interleavings —
  // must all produce the identical recorder and identical bytes.
  Rng shuffle_rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Recorder> shuffled = locals;
    ujoin::testing::Shuffle(&shuffled, shuffle_rng);
    // Also vary the grouping: fold into `groups` partial sums first.
    const int groups = 1 << (trial % 4);  // 1, 2, 4, 8
    std::vector<Recorder> partial(static_cast<size_t>(groups));
    for (size_t i = 0; i < shuffled.size(); ++i) {
      partial[i % static_cast<size_t>(groups)].Merge(shuffled[i]);
    }
    Recorder total;
    for (const Recorder& p : partial) total.Merge(p);
    EXPECT_TRUE(total == in_order) << "trial " << trial;
    EXPECT_EQ(total.ToJson(), reference_json) << "trial " << trial;
  }
}

TEST(RecorderTest, ToJsonContainsEveryRegistryMetric) {
  Recorder r;
  r.RecordHist(Hist::kVerifyLatencyNs, 1500);
  r.AddCounter(Counter::kQueries, 2);
  r.SetGauge(Gauge::kThreads, 3);
  const std::string json = r.ToJson();
  for (int i = 0; i < kNumHists; ++i) {
    EXPECT_NE(json.find(HistInfo(static_cast<Hist>(i)).name),
              std::string::npos);
  }
  for (int i = 0; i < kNumCounters; ++i) {
    EXPECT_NE(json.find(CounterInfo(static_cast<Counter>(i)).name),
              std::string::npos);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    EXPECT_NE(json.find(GaugeInfo(static_cast<Gauge>(i)).name),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"funnel\":"), std::string::npos);
  for (int i = 0; i < kNumFunnelStages; ++i) {
    const std::string key =
        std::string("\"") + FunnelStageInfo(static_cast<FunnelStage>(i)).name +
        "\":{\"entered\":";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
