#include "obs/report.h"
#include "obs/trace.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ujoin {
namespace obs {
namespace {

TEST(TraceRecorderTest, EmitsMetadataAndCompleteEvents) {
  TraceRecorder trace;
  trace.AddSpan("build", 1000, 2500, /*tid=*/0);
  SpanCollector worker(&trace, /*tid=*/2);
  worker.Span("probe", 5000, 1500);
  worker.Span("verify", 7000, 250);
  trace.Append(worker.events());
  EXPECT_EQ(trace.num_events(), 3u);

  const std::string json = trace.ToJson();
  // Chrome trace-event envelope.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Thread-name metadata for both referenced tids.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"worker 1\""), std::string::npos);  // tid 2 = rank 1
  // Complete ("X") events with microsecond timestamps (1000 ns = 1 us).
  EXPECT_NE(json.find("\"name\":\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.5"), std::string::npos);
}

TEST(TraceRecorderTest, DisabledSpanCollectorRecordsNothing) {
  SpanCollector disabled;
  EXPECT_EQ(disabled.NowNs(), 0);
  disabled.Span("ignored", 0, 10);
  EXPECT_TRUE(disabled.events().empty());
}

TEST(TraceRecorderTest, MetadataRecordsSamplingRateAndProbeCounts) {
  // Default: no sampling configured — metadata still present, rate 1.
  TraceRecorder trace;
  EXPECT_NE(trace.ToJson().find("\"metadata\":{\"probe_span_sample_n\":1,"
                                "\"probes_seen\":0,\"probes_sampled\":0}"),
            std::string::npos);

  trace.SetProbeSampling(/*n=*/4, /*seed=*/123);
  int64_t sampled = 0;
  for (int64_t i = 0; i < 100; ++i) {
    const bool keep = trace.SampleProbe(i);
    trace.NoteProbe(keep);
    if (keep) ++sampled;
  }
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"probe_span_sample_n\":4,\"probes_seen\":100,"
                      "\"probes_sampled\":" +
                      std::to_string(sampled) + "}"),
            std::string::npos);
  // 1-in-4 over 100 probes: the seeded decision lands near 25 kept.
  EXPECT_GT(sampled, 10);
  EXPECT_LT(sampled, 45);
}

TEST(TraceRecorderTest, SampleProbeIsDeterministicPerIndexAndSeed) {
  TraceRecorder a, b;
  a.SetProbeSampling(8, 42);
  b.SetProbeSampling(8, 42);
  // Same (seed, index) -> same decision, regardless of query order.  This
  // is what makes sampled traces identical across thread counts: the
  // decision is a pure function of the global probe index.
  std::vector<bool> reverse_order;
  for (int64_t i = 999; i >= 0; --i) reverse_order.push_back(b.SampleProbe(i));
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.SampleProbe(i),
              reverse_order[static_cast<size_t>(999 - i)])
        << i;
  }
  // A different seed yields a different decision set.
  TraceRecorder c;
  c.SetProbeSampling(8, 43);
  int64_t differs = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (c.SampleProbe(i) != a.SampleProbe(i)) ++differs;
  }
  EXPECT_GT(differs, 0);
}

TEST(TraceRecorderTest, SamplingRateOneKeepsEveryProbe) {
  TraceRecorder trace;
  trace.SetProbeSampling(1, 7);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(trace.SampleProbe(i));
  }
}

TEST(TraceRecorderTest, SamplingReducesKeptProbesRoughlyNFold) {
  for (const int64_t n : {2, 4, 16}) {
    TraceRecorder trace;
    trace.SetProbeSampling(n, 99);
    int64_t kept = 0;
    const int64_t total = 4000;
    for (int64_t i = 0; i < total; ++i) {
      if (trace.SampleProbe(i)) ++kept;
    }
    // Expect total/n kept, within a generous 2x band either way.
    EXPECT_GT(kept, total / (2 * n)) << "n=" << n;
    EXPECT_LT(kept, 2 * total / n) << "n=" << n;
  }
}

TEST(TraceRecorderTest, WriteFileProducesParsableDocument) {
  TraceRecorder trace;
  trace.AddSpan("stage", 0, 1000, /*tid=*/0);
  const std::string path = ::testing::TempDir() + "/ujoin_trace_test.json";
  ASSERT_TRUE(trace.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), trace.ToJson());
  EXPECT_FALSE(trace.WriteFile("/nonexistent-dir/x/y.json").ok());
}

TEST(RunReportTest, EnvelopeHasSchemaAndSections) {
  const std::string report =
      RenderRunReport("join", {{"options", R"({"k":2})"},
                               {"stats", R"({"pairs":5})"}});
  EXPECT_EQ(report,
            R"({"schema":"ujoin.run_report","schema_version":3,)"
            R"("command":"join",)"
            R"("options":{"k":2},"stats":{"pairs":5}})");
}

TEST(RunReportTest, WriteRunReportRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ujoin_report_test.json";
  ASSERT_TRUE(WriteRunReport(path, "search", {{"metrics", "{}"}}).ok());
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), RenderRunReport("search", {{"metrics", "{}"}}));
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
