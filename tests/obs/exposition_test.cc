#include "obs/exposition.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace ujoin {
namespace obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A small seeded recorder used by the golden test and the ctest-level
// python validator (see WritesSampleForValidator).
Recorder SeededRecorder() {
  Recorder r;
  r.AddCounter(Counter::kQueries, 3);
  r.AddCounter(Counter::kProbes, 48);
  r.SetGauge(Gauge::kThreads, 4);
  r.SetGauge(Gauge::kCollectionSize, 48);
  r.AddFunnel(FunnelStage::kQgram, 1000, 120);
  r.AddFunnel(FunnelStage::kFreqDistance, 120, 80);
  r.AddFunnel(FunnelStage::kCdfBound, 80, 30);
  r.AddFunnel(FunnelStage::kVerify, 25, 12);
  r.RecordHist(Hist::kVerifyLatencyNs, 0);
  r.RecordHist(Hist::kVerifyLatencyNs, 1);
  r.RecordHist(Hist::kVerifyLatencyNs, 900);
  r.RecordHist(Hist::kVerifyLatencyNs, 1500);
  r.RecordHist(Hist::kMergedListLength, 17);
  return r;
}

TEST(ExpositionTest, GoldenTextForSeededRecorder) {
  const std::string text = RenderPrometheusText(SeededRecorder());

  // Counter family: HELP + TYPE from the registry metadata, `_total` suffix.
  EXPECT_NE(text.find("# HELP ujoin_probes_total probes executed against "
                      "the segment index\n"
                      "# TYPE ujoin_probes_total counter\n"
                      "ujoin_probes_total 48\n"),
            std::string::npos);
  EXPECT_NE(text.find("ujoin_queries_total 3\n"), std::string::npos);
  // Gauges keep their registry name as-is.
  EXPECT_NE(text.find("# TYPE ujoin_threads gauge\nujoin_threads 4\n"),
            std::string::npos);
  // Funnel: one family, stage+edge labels, pipeline order.
  EXPECT_NE(
      text.find(
          "# TYPE ujoin_filter_funnel_candidates_total counter\n"
          "ujoin_filter_funnel_candidates_total{stage=\"qgram\","
          "edge=\"entered\"} 1000\n"
          "ujoin_filter_funnel_candidates_total{stage=\"qgram\","
          "edge=\"survived\"} 120\n"
          "ujoin_filter_funnel_candidates_total{stage=\"freq_distance\","
          "edge=\"entered\"} 120\n"),
      std::string::npos);
  EXPECT_NE(text.find("{stage=\"verify\",edge=\"survived\"} 12\n"),
            std::string::npos);
  // Histogram: log2 bucket b holds [2^(b-1), 2^b), so its inclusive `le`
  // bound is 2^b - 1; cumulative counts; terminal +Inf; _sum and _count.
  // Samples 0, 1, 900, 1500 land in buckets 0, 1, 10, 11.
  EXPECT_NE(
      text.find("# TYPE ujoin_verify_latency_ns histogram\n"
                "ujoin_verify_latency_ns_bucket{le=\"0\"} 1\n"
                "ujoin_verify_latency_ns_bucket{le=\"1\"} 2\n"
                "ujoin_verify_latency_ns_bucket{le=\"3\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("ujoin_verify_latency_ns_bucket{le=\"1023\"} 3\n"
                      "ujoin_verify_latency_ns_bucket{le=\"2047\"} 4\n"
                      "ujoin_verify_latency_ns_bucket{le=\"+Inf\"} 4\n"
                      "ujoin_verify_latency_ns_sum 2401\n"
                      "ujoin_verify_latency_ns_count 4\n"),
            std::string::npos);

  // Deterministic: same recorder, same bytes.
  EXPECT_EQ(text, RenderPrometheusText(SeededRecorder()));
}

TEST(ExpositionTest, EmptyRecorderRendersEveryFamilyValidly) {
  const std::string text = RenderPrometheusText(Recorder());
  // Every registry family is present even with no recorded data...
  for (int c = 0; c < kNumCounters; ++c) {
    const std::string family = std::string("ujoin_") +
                               CounterInfo(static_cast<Counter>(c)).name +
                               "_total";
    EXPECT_NE(text.find("# TYPE " + family + " counter\n" + family + " 0\n"),
              std::string::npos)
        << family;
  }
  for (int h = 0; h < kNumHists; ++h) {
    const std::string family =
        std::string("ujoin_") + HistInfo(static_cast<Hist>(h)).name;
    // ...and an empty histogram still carries its mandatory +Inf terminal.
    EXPECT_NE(text.find(family + "_bucket{le=\"+Inf\"} 0\n" + family +
                        "_sum 0\n" + family + "_count 0\n"),
              std::string::npos)
        << family;
  }
}

TEST(ExpositionTest, BucketBoundsMatchHistogramBuckets) {
  // One sample per power of two: each lands in its own bucket, and the `le`
  // label must be that bucket's exact inclusive upper bound 2^b - 1.
  Recorder r;
  r.RecordHist(Hist::kMergedListLength, 1);     // bucket 1, le=1
  r.RecordHist(Hist::kMergedListLength, 2);     // bucket 2, le=3
  r.RecordHist(Hist::kMergedListLength, 4);     // bucket 3, le=7
  r.RecordHist(Hist::kMergedListLength, 1024);  // bucket 11, le=2047
  const std::string text = RenderPrometheusText(r);
  EXPECT_NE(text.find("ujoin_merged_list_length_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ujoin_merged_list_length_bucket{le=\"3\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ujoin_merged_list_length_bucket{le=\"7\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ujoin_merged_list_length_bucket{le=\"2047\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("ujoin_merged_list_length_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  // No le beyond the highest non-empty bucket (before +Inf).
  EXPECT_EQ(text.find("ujoin_merged_list_length_bucket{le=\"4095\"}"),
            std::string::npos);
}

TEST(ExpositionTest, TextfileWriteIsAtomicAndByteIdentical) {
  const std::string path =
      ::testing::TempDir() + "/exposition_textfile_test.prom";
  const Recorder r = SeededRecorder();
  ASSERT_TRUE(WritePrometheusTextfile(r, path).ok());
  EXPECT_EQ(ReadFile(path), RenderPrometheusText(r));
  // The temp file was renamed into place, not left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  // Overwrite goes through the same tmp+rename path.
  Recorder updated = r;
  updated.AddCounter(Counter::kProbes, 1);
  ASSERT_TRUE(WritePrometheusTextfile(updated, path).ok());
  EXPECT_EQ(ReadFile(path), RenderPrometheusText(updated));
  std::remove(path.c_str());
}

// Writes a rendered page into the current working directory for the
// ctest-registered python format validator (tools/validate.py);
// see tests/CMakeLists.txt, `ujoin_exposition_validate`.
TEST(ExpositionTest, WritesSampleForValidator) {
  ASSERT_TRUE(
      WritePrometheusTextfile(SeededRecorder(), "exposition_sample.prom")
          .ok());
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
