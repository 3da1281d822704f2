#include "serve/protocol.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "serve/search_server.h"
#include "serve_test_util.h"

namespace ujoin {
namespace serve {
namespace {

using serve::testing::LineClient;

// --- LineFramer ------------------------------------------------------------

TEST(LineFramerTest, SplitsCompleteLines) {
  LineFramer framer(64);
  const std::string stream = "one\ntwo\r\n\nthree";
  framer.Append(stream.data(), stream.size());
  std::string line;
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "one");
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "two");  // CR stripped
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "");  // batch separator
  EXPECT_FALSE(framer.NextLine(&line));  // "three" has no newline yet
  framer.Append("\n", 1);
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "three");
}

TEST(LineFramerTest, ReassemblesSplitFrames) {
  LineFramer framer(64);
  std::string line;
  framer.Append("hel", 3);
  EXPECT_FALSE(framer.NextLine(&line));
  framer.Append("lo\nwo", 5);
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "hello");
  EXPECT_FALSE(framer.NextLine(&line));
  framer.Append("rld\n", 4);
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, "world");
}

TEST(LineFramerTest, PartialOverLimitFiresOnlyWithoutNewline) {
  LineFramer framer(8);
  const std::string long_line(20, 'x');
  framer.Append(long_line.data(), long_line.size());
  EXPECT_TRUE(framer.PartialOverLimit());
  // A newline restores framing: the oversized line is returned whole so the
  // caller can answer it with an error and keep the connection.
  framer.Append("\n", 1);
  std::string line;
  ASSERT_TRUE(framer.NextLine(&line));
  EXPECT_EQ(line, long_line);
  EXPECT_FALSE(framer.PartialOverLimit());
}

TEST(LineFramerTest, LongLivedStreamStaysBounded) {
  LineFramer framer(32);
  std::string line;
  for (int i = 0; i < 10000; ++i) {
    std::string payload = "q";
    payload += std::to_string(i);
    const std::string frame = payload + "\n";
    framer.Append(frame.data(), frame.size());
    ASSERT_TRUE(framer.NextLine(&line));
    EXPECT_EQ(line, payload);
    EXPECT_FALSE(framer.NextLine(&line));
    EXPECT_FALSE(framer.PartialOverLimit());
  }
}

// --- BatchGuard ------------------------------------------------------------

TEST(BatchGuardTest, CountsRequestsAgainstTheCap) {
  BatchGuard guard(/*max_requests=*/2, /*max_bytes=*/0);
  EXPECT_TRUE(guard.AddRequest(10));
  EXPECT_TRUE(guard.AddRequest(10));
  // The violating line is still counted, so the message can describe it.
  EXPECT_FALSE(guard.AddRequest(10));
  EXPECT_EQ(guard.requests(), 3);
  EXPECT_TRUE(guard.OverLimit());
  EXPECT_NE(guard.ViolationMessage().find("batch exceeds request cap of 2"),
            std::string::npos)
      << guard.ViolationMessage();

  // The separator starts a fresh batch.
  guard.Reset();
  EXPECT_FALSE(guard.OverLimit());
  EXPECT_TRUE(guard.AddRequest(10));
}

TEST(BatchGuardTest, CountsBytesAgainstTheCap) {
  BatchGuard guard(/*max_requests=*/0, /*max_bytes=*/100);
  EXPECT_TRUE(guard.AddRequest(60));
  EXPECT_FALSE(guard.AddRequest(60));
  EXPECT_EQ(guard.bytes(), 120);
  EXPECT_NE(guard.ViolationMessage().find("byte"), std::string::npos)
      << guard.ViolationMessage();
  guard.Reset();
  EXPECT_TRUE(guard.AddRequest(60));
}

TEST(BatchGuardTest, NonPositiveCapsAreUnlimited) {
  BatchGuard guard(/*max_requests=*/0, /*max_bytes=*/-1);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(guard.AddRequest(1 << 20));
  }
  EXPECT_FALSE(guard.OverLimit());
}

// --- Response rendering ----------------------------------------------------

TEST(ProtocolRenderTest, HitsResponseBytes) {
  const std::vector<SearchHit> hits = {{3, 0.75, true}, {9, 0.5, false}};
  EXPECT_EQ(RenderHitsResponse(7, hits, /*inexact=*/true),
            "{\"seq\":7,\"status\":\"ok\",\"inexact\":true,\"hits\":["
            "{\"id\":3,\"probability\":0.75,\"exact\":true},"
            "{\"id\":9,\"probability\":0.5,\"exact\":false}]}\n");
  EXPECT_EQ(RenderHitsResponse(1, {}, /*inexact=*/false),
            "{\"seq\":1,\"status\":\"ok\",\"inexact\":false,\"hits\":[]}\n");
}

TEST(ProtocolRenderTest, ErrorAndBusyResponseBytes) {
  EXPECT_EQ(RenderErrorResponse(2, "bad \"frame\""),
            "{\"seq\":2,\"status\":\"error\",\"error\":\"bad \\\"frame\\\"\"}\n");
  EXPECT_EQ(RenderBusyResponse(),
            "{\"seq\":0,\"status\":\"busy\",\"error\":"
            "\"server at connection capacity\"}\n");
}

TEST(ProtocolRenderTest, ServeHealthDescribesTheBuildAndTheIndex) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = 30;
  opt.theta = 0.25;
  opt.seed = 9;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  const std::vector<UncertainString> collection = GenerateDataset(opt).strings;
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      collection, Alphabet::Names(), JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(searcher.ok());

  const std::string health = RenderServeHealth(*searcher);
  EXPECT_EQ(health.rfind("{\"status\":\"ok\",\"searcher_format_version\":", 0),
            0u)
      << health;
  EXPECT_NE(health.find("\"metrics_schema_version\":"), std::string::npos);
  EXPECT_NE(health.find("\"collection_size\":30"), std::string::npos);
  EXPECT_NE(health.find("\"index_length_buckets\":"), std::string::npos);
  EXPECT_NE(health.find("\"index_segments\":"), std::string::npos);
#ifdef UJOIN_OBS_DISABLED
  EXPECT_NE(health.find("\"obs\":false"), std::string::npos);
#else
  EXPECT_NE(health.find("\"obs\":true"), std::string::npos);
#endif
  EXPECT_EQ(health.back(), '\n');
  // Byte-deterministic for a fixed build and searcher.
  EXPECT_EQ(RenderServeHealth(*searcher), health);
}

// --- Server robustness (raw-socket fixtures) -------------------------------

class ServeRobustnessTest : public ::testing::Test {
 protected:
  void StartServer(ServeOptions options) {
    DatasetOptions opt;
    opt.kind = DatasetOptions::Kind::kNames;
    opt.size = 30;
    opt.theta = 0.25;
    opt.seed = 9;
    opt.min_length = 4;
    opt.max_length = 10;
    opt.max_uncertain_positions = 4;
    collection_ = GenerateDataset(opt).strings;
    JoinOptions join_options = JoinOptions::Qfct(2, 0.1);
    Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
        collection_, Alphabet::Names(), join_options);
    ASSERT_TRUE(searcher.ok());
    searcher_ = std::make_unique<SimilaritySearcher>(
        std::move(searcher).value());
    server_ = std::make_unique<SearchServer>(searcher_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::string QueryLine(size_t i) const {
    return collection_[i % collection_.size()].ToString();
  }

  /// A valid request answered with status "ok" proves the server is still
  /// accepting and serving after whatever abuse the test inflicted.
  void ExpectServerAlive() {
    LineClient probe(server_->port());
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(probe.SendLine(QueryLine(0)));
    const std::string response = probe.ReadLine();
    EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
        << response;
  }

  std::vector<UncertainString> collection_;
  std::unique_ptr<SimilaritySearcher> searcher_;
  std::unique_ptr<SearchServer> server_;
};

TEST_F(ServeRobustnessTest, MalformedFrameGetsErrorAndConnectionSurvives) {
  StartServer(ServeOptions{});
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine("not a valid uncertain string !!"));
  std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"seq\":1"), std::string::npos) << response;
  // Same connection keeps working: framing was never lost.
  ASSERT_TRUE(client.SendLine(QueryLine(0)));
  response = client.ReadLine();
  EXPECT_NE(response.find("\"seq\":2"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  client.Close();
  ExpectServerAlive();
#ifndef UJOIN_OBS_DISABLED
  const obs::Recorder serve_metrics = server_->ServeMetrics();
  EXPECT_EQ(serve_metrics.counter(obs::Counter::kServeRequestErrors), 1);
#endif
}

TEST_F(ServeRobustnessTest, OversizedCompleteLineGetsErrorAndSurvives) {
  ServeOptions options;
  // Big enough for any rendered test query, small enough to overflow
  // cheaply.
  options.max_request_bytes = 1024;
  StartServer(options);
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // The oversized line ends in a newline inside one segment, so framing is
  // intact and the connection must survive.
  ASSERT_TRUE(client.SendLine(std::string(1025, 'A')));
  std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("exceeds 1024 bytes"), std::string::npos)
      << response;
  ASSERT_TRUE(client.SendLine(QueryLine(0)));
  response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
}

TEST_F(ServeRobustnessTest, OversizedPartialLineClosesConnection) {
  ServeOptions options;
  options.max_request_bytes = 1024;
  StartServer(options);
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  // 1500 bytes and no newline: the frame boundary is unrecoverable, so the
  // server answers once and drops the connection.
  ASSERT_TRUE(client.SendRaw(std::string(1500, 'B')));
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("without a newline"), std::string::npos)
      << response;
  EXPECT_TRUE(client.AtEof());
  ExpectServerAlive();
}

TEST_F(ServeRobustnessTest, HalfClosedConnectionFlushesAndCloses) {
  StartServer(ServeOptions{});
  LineClient client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(QueryLine(0)));
  client.ShutdownWrite();
  const std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
      << response;
  EXPECT_TRUE(client.AtEof());
  ExpectServerAlive();
#ifndef UJOIN_OBS_DISABLED
  // The half-close ended the connection's final batch.
  const obs::Recorder serve_metrics = server_->ServeMetrics();
  EXPECT_GE(serve_metrics.counter(obs::Counter::kServeBatches), 1);
#endif
}

TEST_F(ServeRobustnessTest, SilentDisconnectLeavesServerServing) {
  StartServer(ServeOptions{});
  {
    LineClient client(server_->port());
    ASSERT_TRUE(client.connected());
    // Connect and vanish without sending a byte.
  }
  ExpectServerAlive();
}

TEST_F(ServeRobustnessTest, AdmissionControlRejectsBeyondCapacity) {
  ServeOptions options;
  options.max_connections = 1;
  StartServer(options);
  // The response to a query proves this connection holds the one workspace
  // lease before the second connection arrives.
  LineClient holder(server_->port());
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(holder.SendLine(QueryLine(0)));
  ASSERT_NE(holder.ReadLine().find("\"status\":\"ok\""), std::string::npos);

  LineClient rejected(server_->port());
  ASSERT_TRUE(rejected.connected());
  EXPECT_EQ(rejected.ReadLine(), RenderBusyResponse());
  EXPECT_TRUE(rejected.AtEof());
  rejected.Close();

  // Releasing the lease re-opens admission.  The release happens after the
  // server notices the close, so poll until a fresh connection is served.
  holder.Close();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    LineClient retry(server_->port());
    ASSERT_TRUE(retry.connected());
    ASSERT_TRUE(retry.SendLine(QueryLine(1)));
    const std::string response = retry.ReadLine();
    if (response.find("\"status\":\"ok\"") != std::string::npos) {
      admitted = true;
    }
  }
  EXPECT_TRUE(admitted);
#ifndef UJOIN_OBS_DISABLED
  const obs::Recorder serve_metrics = server_->ServeMetrics();
  EXPECT_GE(serve_metrics.counter(obs::Counter::kServeRejectedConnections),
            1);
#endif
}

TEST_F(ServeRobustnessTest, StopWithIdleConnectionDoesNotHang) {
  StartServer(ServeOptions{});
  LineClient idle(server_->port());
  ASSERT_TRUE(idle.connected());
  // No bytes sent: the worker is parked in its poll loop.  Stop() must
  // still drain within the 100 ms tick.
  server_->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace ujoin
