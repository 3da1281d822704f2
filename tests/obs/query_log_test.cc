#include "obs/query_log.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/join_stats.h"
#include "join/search.h"
#include "obs/metrics.h"

namespace ujoin {
namespace obs {
namespace {

// One query's worth of stats, mirroring what the probe cascade records:
// the pair flow behind the funnel chain and the verified pairs' world
// counts (50000 + 27250).
JoinStats SeededQueryStats() {
  JoinStats s;
  s.length_compatible_pairs = 49;
  s.qgram_candidates = 4;
  s.freq_candidates = 4;
  s.cdf_rejected = 1;
  s.verified_pairs = 2;
  s.verified_hits = 2;
  s.verify_worlds = 77250;
  return s;
}

// The request id is part of the schema (tools/validate.py
// recomputes it); pin the splitmix64 mixing with golden values.
TEST(QueryLogTest, RequestIdGoldenValues) {
  EXPECT_EQ(QueryRequestId(0, 1), 10451216379200822465ull);
  EXPECT_EQ(QueryRequestId(1, 1), 2324861979054413167ull);
  EXPECT_EQ(QueryRequestId(3, 7), 10740533222099876715ull);
  // Connection and seq occupy disjoint halves: no accidental collisions
  // between (c, s) and (s, c).
  EXPECT_NE(QueryRequestId(1, 2), QueryRequestId(2, 1));
}

TEST(QueryLogTest, MakeRecordFromStats) {
  JoinStats stats = SeededQueryStats();
  stats.verified_hits = 1;
  stats.budget_fallbacks = 1;
  stats.total_time = 0.25;
  stats.verify_time = 0.125;
  const QueryLogRecord rec =
      MakeQueryLogRecord(stats, /*connection=*/3, /*seq=*/7,
                         /*query_length=*/22, /*hits=*/3, /*error=*/false);
  EXPECT_EQ(rec.request_id, QueryRequestId(3, 7));
  EXPECT_EQ(rec.connection, 3);
  EXPECT_EQ(rec.seq, 7);
  EXPECT_EQ(rec.query_length, 22);
  EXPECT_EQ(rec.length_band, Histogram::BucketIndex(22));
  EXPECT_EQ(rec.hits, 3);
  EXPECT_FALSE(rec.error);
  EXPECT_EQ(rec.funnel_entered[0], 49);
  EXPECT_EQ(rec.funnel_survived[0], 4);
  EXPECT_EQ(rec.funnel_survived[2], 3);
  EXPECT_EQ(rec.funnel_entered[3], 2);
  EXPECT_EQ(rec.funnel_survived[3], 1);
  EXPECT_EQ(rec.candidates, 4);
  EXPECT_EQ(rec.verify_worlds, 77250);
  // Fallbacks, verdict and timing come from the same stats.
  EXPECT_EQ(rec.budget_fallbacks, 1);
  EXPECT_TRUE(rec.inexact);
  EXPECT_EQ(rec.total_ns, 250000000);
  EXPECT_EQ(rec.verify_ns, 125000000);
}

// The JSONL line is byte-golden: key order and value formatting are the
// schema, shared with tools/validate.py.
TEST(QueryLogTest, RenderedLineIsByteGolden) {
  QueryLogRecord rec =
      MakeQueryLogRecord(SeededQueryStats(), 3, 7, 22, 3, false);
  rec.total_ns = 5;
  rec.verify_ns = 2;
  EXPECT_EQ(
      RenderQueryLogLine(rec),
      "{\"schema\":\"ujoin.query_log\",\"schema_version\":1,"
      "\"request_id\":10740533222099876715,\"connection\":3,\"seq\":7,"
      "\"query_length\":22,\"length_band\":5,\"funnel\":{"
      "\"qgram\":{\"entered\":49,\"survived\":4},"
      "\"freq_distance\":{\"entered\":4,\"survived\":4},"
      "\"cdf_bound\":{\"entered\":4,\"survived\":3},"
      "\"verify\":{\"entered\":2,\"survived\":2}},"
      "\"candidates\":4,\"verify_worlds\":77250,\"budget_fallbacks\":0,"
      "\"deadline_fallbacks\":0,\"hits\":3,\"status\":\"ok\","
      "\"inexact\":false,\"timing\":{\"total_ns\":5,\"verify_ns\":2}}\n");
}

TEST(QueryLogTest, DeterministicContentExcludesAttributionAndTiming) {
  QueryLogRecord a = MakeQueryLogRecord(SeededQueryStats(), 1, 1, 22, 3,
                                        false);
  QueryLogRecord b = MakeQueryLogRecord(SeededQueryStats(), 4, 9, 22, 3,
                                        false);
  a.total_ns = 111;
  b.total_ns = 999999;
  // Same query content, different connection/seq/wall-clock: the content
  // rendering must be identical (this is what makes the verify-worlds ring
  // client-count invariant).
  EXPECT_EQ(DeterministicContentJson(a), DeterministicContentJson(b));
  EXPECT_NE(RenderQueryLogLine(a), RenderQueryLogLine(b));

  b.hits = 4;
  EXPECT_NE(DeterministicContentJson(a), DeterministicContentJson(b));
}

TEST(QueryLogTest, ErrorRecordRendersErrorStatus) {
  const QueryLogRecord rec =
      MakeQueryLogRecord(JoinStats{}, 2, 5, 0, 0, /*error=*/true);
  const std::string line = RenderQueryLogLine(rec);
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(line.find("\"hits\":0"), std::string::npos);
}

TEST(QueryLogTest, FileSinkWritesJsonl) {
  const std::string path =
      ::testing::TempDir() + "query_log_test_sink.jsonl";
  QueryLog log;
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_TRUE(log.is_open());
  // Double-open is a caller bug, reported not ignored.
  EXPECT_FALSE(log.Open(path).ok());
  for (int i = 1; i <= 3; ++i) {
    log.Write(MakeQueryLogRecord(SeededQueryStats(), 0, i, 22, 3, false));
  }
  EXPECT_EQ(log.records_written(), 3);
  ASSERT_TRUE(log.Close().ok());
  EXPECT_TRUE(log.Close().ok());  // idempotent

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"schema\":\"ujoin.query_log\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(QueryLogTest, BufferFlushesAndDropsWhenMisused) {
  const std::string path =
      ::testing::TempDir() + "query_log_test_buffer.jsonl";
  QueryLog log;
  ASSERT_TRUE(log.Open(path).ok());
  QueryLogBuffer buffer(/*capacity=*/2);
  const QueryLogRecord rec =
      MakeQueryLogRecord(SeededQueryStats(), 0, 1, 22, 3, false);
  buffer.Add(rec);
  EXPECT_FALSE(buffer.full());
  buffer.Add(rec);
  EXPECT_TRUE(buffer.full());
  buffer.Add(rec);  // over capacity: dropped, not grown
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 1);
  buffer.FlushTo(&log);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(log.records_written(), 2);
  buffer.FlushTo(&log);            // empty flush is a no-op
  buffer.FlushTo(nullptr);         // null log just clears
  EXPECT_EQ(log.records_written(), 2);
  ASSERT_TRUE(log.Close().ok());
  std::remove(path.c_str());
}

QueryLogRecord RecordWithCost(int64_t verify_worlds, int64_t total_ns,
                              int64_t hits) {
  QueryLogRecord rec;
  rec.request_id = QueryRequestId(0, hits + 1);
  rec.seq = hits + 1;
  rec.verify_worlds = verify_worlds;
  rec.total_ns = total_ns;
  rec.hits = hits;
  return rec;
}

TEST(SlowQueryRingTest, KeepsWorstByKeyWorstFirst) {
  SlowQueryRing ring(SlowQueryRing::Key::kVerifyWorlds, /*capacity=*/3);
  for (int64_t w : {10, 70, 30, 50, 20, 60}) {
    ring.Offer(RecordWithCost(w, 0, w));
  }
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.record(0).verify_worlds, 70);
  EXPECT_EQ(ring.record(1).verify_worlds, 60);
  EXPECT_EQ(ring.record(2).verify_worlds, 50);

  SlowQueryRing latency(SlowQueryRing::Key::kLatencyNs, /*capacity=*/2);
  latency.Offer(RecordWithCost(1, 100, 1));
  latency.Offer(RecordWithCost(2, 900, 2));
  latency.Offer(RecordWithCost(3, 500, 3));
  ASSERT_EQ(latency.size(), 2u);
  EXPECT_EQ(latency.record(0).total_ns, 900);
  EXPECT_EQ(latency.record(1).total_ns, 500);
}

// The kept (key, content) multiset is a pure top-N of everything offered:
// any arrival order produces the same ring contents.  This is the property
// that makes the verify-worlds ring client-count invariant in the server.
TEST(SlowQueryRingTest, ContentsAreOfferOrderInvariant) {
  std::vector<QueryLogRecord> records;
  for (int i = 0; i < 12; ++i) {
    // Duplicate keys on purpose: ties are broken by content.
    records.push_back(RecordWithCost((i % 5) * 100, i, i));
  }
  const auto ring_contents = [&](const std::vector<int>& order) {
    SlowQueryRing ring(SlowQueryRing::Key::kVerifyWorlds, 4);
    for (int idx : order) ring.Offer(records[static_cast<size_t>(idx)]);
    std::string out;
    for (const QueryLogRecord& rec : ring.Records()) {
      out += DeterministicContentJson(rec);
      out += '\n';
    }
    return out;
  };
  std::vector<int> forward, reverse, strided;
  for (int i = 0; i < 12; ++i) forward.push_back(i);
  for (int i = 11; i >= 0; --i) reverse.push_back(i);
  for (int s = 0; s < 3; ++s) {
    for (int i = s; i < 12; i += 3) strided.push_back(i);
  }
  const std::string expected = ring_contents(forward);
  EXPECT_EQ(ring_contents(reverse), expected);
  EXPECT_EQ(ring_contents(strided), expected);
}

TEST(SlowQueryRingTest, RendersSlowQueriesPage) {
  SlowQueryRing by_worlds(SlowQueryRing::Key::kVerifyWorlds, 4);
  SlowQueryRing by_latency(SlowQueryRing::Key::kLatencyNs, 4);
  by_worlds.Offer(RecordWithCost(10, 5, 1));
  by_latency.Offer(RecordWithCost(10, 5, 1));
  const std::string page = RenderSlowQueriesPage(by_worlds, by_latency);
  EXPECT_EQ(page.rfind("{\"schema\":\"ujoin.slow_queries\","
                       "\"schema_version\":1,\"capacity\":4,", 0),
            0u)
      << page;
  EXPECT_NE(page.find("\"by_verify_worlds\":[{"), std::string::npos);
  EXPECT_NE(page.find("\"by_latency_ns\":[{"), std::string::npos);
  EXPECT_EQ(page.back(), '\n');

  // Empty rings still render a complete page.
  SlowQueryRing empty_a(SlowQueryRing::Key::kVerifyWorlds, 4);
  SlowQueryRing empty_b(SlowQueryRing::Key::kLatencyNs, 4);
  const std::string empty = RenderSlowQueriesPage(empty_a, empty_b);
  EXPECT_NE(empty.find("\"by_verify_worlds\":[]"), std::string::npos);
  EXPECT_NE(empty.find("\"by_latency_ns\":[]"), std::string::npos);
}

// Writes a real log through SearchMany for the ctest fixture that runs
// tools/validate.py against it (see tests/CMakeLists.txt) — the
// C++ renderer and the independent python validator must agree on every
// byte-level schema rule.
TEST(QueryLogTest, WritesSampleForValidator) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = 40;
  opt.theta = 0.25;
  opt.seed = 17;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 3;
  const std::vector<UncertainString> collection =
      GenerateDataset(opt).strings;
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(collection, Alphabet::Names(), options);
  ASSERT_TRUE(searcher.ok());

  QueryLog log;
  ASSERT_TRUE(log.Open("query_log_sample.jsonl").ok());
  const std::vector<UncertainString> queries(collection.begin(),
                                             collection.begin() + 10);
  JoinStats stats;
  ASSERT_TRUE(searcher
                  ->SearchMany(queries, /*threads=*/2, &stats,
                               /*metrics=*/nullptr, /*trace=*/nullptr,
                               /*limits=*/nullptr, &log)
                  .ok());
  // One hand-built error record too, so the validator's error-path checks
  // run against C++-rendered bytes.
  log.Write(MakeQueryLogRecord(JoinStats{}, 1, 1, 0, 0, /*error=*/true));
  EXPECT_EQ(log.records_written(), 11);
  ASSERT_TRUE(log.Close().ok());
}

// Each record is a function of its own query's stats: with a world budget
// tight enough to force CDF fallbacks, every line a SearchMany writes at 1
// and 4 threads carries the funnel, candidates, verify worlds, fallbacks and
// verdict of a separate Search of the same query.  k = 3 leaves some pairs
// undecided by the CDF bound that verification then rejects, so the verify
// stage's entered and survived counts differ.
TEST(QueryLogTest, RecordsMatchEachQuerysOwnSearch) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = 90;
  opt.theta = 0.3;
  opt.seed = 23;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  const std::vector<UncertainString> collection =
      GenerateDataset(opt).strings;
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      collection, Alphabet::Names(), JoinOptions::Qfct(3, 0.1));
  ASSERT_TRUE(searcher.ok());
  const std::vector<UncertainString> queries(collection.begin(),
                                             collection.begin() + 24);
  SearchLimits limits;
  limits.max_verify_worlds = 64;

  // The content each record must carry, derived field by field from the
  // stats of a separate Search of its query.
  std::vector<std::string> expected;
  JoinStats totals;
  for (const UncertainString& query : queries) {
    JoinStats stats;
    Recorder rec;
    Result<std::vector<SearchHit>> hits = searcher->Search(
        query, &stats, /*workspace=*/nullptr, &rec, /*spans=*/nullptr,
        &limits);
    ASSERT_TRUE(hits.ok());
#ifndef UJOIN_OBS_DISABLED
    EXPECT_EQ(stats.verify_worlds, rec.hist(Hist::kVerifyWorldCount).sum());
#endif
    QueryLogRecord content;
    content.query_length = query.length();
    content.length_band = Histogram::BucketIndex(query.length());
    content.funnel_entered[0] = stats.length_compatible_pairs;
    content.funnel_survived[0] = stats.qgram_candidates;
    content.funnel_entered[1] = stats.qgram_candidates;
    content.funnel_survived[1] = stats.freq_candidates;
    content.funnel_entered[2] = stats.freq_candidates;
    content.funnel_survived[2] = stats.freq_candidates - stats.cdf_rejected;
    content.funnel_entered[3] = stats.verified_pairs;
    content.funnel_survived[3] = stats.verified_hits;
    content.candidates = stats.qgram_candidates;
    content.verify_worlds = stats.verify_worlds;
    content.budget_fallbacks = stats.budget_fallbacks;
    content.deadline_fallbacks = stats.deadline_fallbacks;
    content.hits = static_cast<int64_t>(hits->size());
    content.inexact = stats.Inexact();
    const std::string json = DeterministicContentJson(content);
    expected.push_back(json.substr(1, json.size() - 2));  // drop the braces
    totals.Merge(stats);
  }
  // The workload exercises both sides of the budget and of the verdict.
  ASSERT_GT(totals.budget_fallbacks, 0);
  ASSERT_GT(totals.verified_hits, 0);
  ASSERT_GT(totals.verified_pairs, totals.verified_hits);

  for (int threads : {1, 4}) {
    const std::string path = ::testing::TempDir() + "query_log_test_own_" +
                             std::to_string(threads) + ".jsonl";
    QueryLog log;
    ASSERT_TRUE(log.Open(path).ok());
    ASSERT_TRUE(searcher
                    ->SearchMany(queries, threads, /*stats=*/nullptr,
                                 /*metrics=*/nullptr, /*trace=*/nullptr,
                                 &limits, &log)
                    .ok());
    ASSERT_TRUE(log.Close().ok());
    std::ifstream in(path);
    std::string line;
    size_t i = 0;
    while (std::getline(in, line)) {
      ASSERT_LT(i, expected.size()) << threads;
      EXPECT_NE(line.find("\"seq\":" + std::to_string(i + 1) + "," +
                          expected[i] + ",\"timing\""),
                std::string::npos)
          << "threads=" << threads << " query " << i << "\n"
          << line << "\nexpected content " << expected[i];
      ++i;
    }
    EXPECT_EQ(i, queries.size()) << threads;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
