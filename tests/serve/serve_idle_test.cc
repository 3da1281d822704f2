// Regression tests for ServeOptions::idle_timeout_ms: a connection that
// goes quiet is closed at the poll tick that pushes it past the timeout,
// counted under serve_idle_closed_connections, and recorded as a
// conn_idle_close flight event — while connections that keep talking stay
// open, and the server keeps serving new connections afterwards.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "obs/metrics.h"
#include "serve/search_server.h"
#include "serve_test_util.h"

namespace ujoin {
namespace {

using serve::testing::LineClient;

class ServeIdleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetOptions opt;
    opt.kind = DatasetOptions::Kind::kNames;
    opt.size = 40;
    opt.theta = 0.15;
    opt.seed = 23;
    opt.max_uncertain_positions = 2;
    const Dataset dataset = GenerateDataset(opt);
    strings_ = dataset.strings;
    Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
        strings_, dataset.alphabet, JoinOptions::Qfct(2, 0.1));
    ASSERT_TRUE(searcher.ok());
    searcher_ =
        std::make_unique<SimilaritySearcher>(std::move(searcher).value());
  }

  int64_t IdleClosed(const serve::SearchServer& server) {
    return server.ServeMetrics().counter(
        obs::Counter::kServeIdleClosedConnections);
  }

  std::vector<UncertainString> strings_;
  std::unique_ptr<SimilaritySearcher> searcher_;
};

TEST_F(ServeIdleTest, SilentConnectionIsClosedAndCounted) {
  serve::ServeOptions options;
  // Wide enough that an active client (below) never trips it on a loaded
  // box, short enough that the idle close lands quickly.
  options.idle_timeout_ms = 1500;
  serve::SearchServer server(searcher_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port(), /*recv_timeout_sec=*/30);
  ASSERT_TRUE(client.connected());
  const std::string query = strings_[0].ToString();

  // Activity resets the idle clock: two queries half a timeout apart both
  // answer, so a talking connection is never reaped.
  ASSERT_TRUE(client.SendLine(query));
  std::string response = client.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_TRUE(client.SendLine(query));
  response = client.ReadLine();
  EXPECT_NE(response.find("\"seq\":2"), std::string::npos) << response;
  EXPECT_EQ(IdleClosed(server), 0);

  // Now go silent: the server closes its side once idle_timeout_ms of
  // empty poll ticks accumulate.  The counters read 0 when recording is
  // compiled out (-DUJOIN_OBS=OFF); the close itself is checked either way.
  EXPECT_TRUE(client.AtEof());
#ifndef UJOIN_OBS_DISABLED
  EXPECT_EQ(IdleClosed(server), 1);
#endif

  // The reap is per-connection, not per-server: a fresh connection is
  // admitted and served as usual.
  LineClient next(server.port(), /*recv_timeout_sec=*/30);
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.SendLine(query));
  response = next.ReadLine();
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"seq\":1"), std::string::npos) << response;

  next.Close();
  client.Close();
  server.Stop();
#ifndef UJOIN_OBS_DISABLED
  // The idle-closed connection still flushed its final batch: both its
  // requests are in the fold.
  EXPECT_EQ(server.ServeMetrics().counter(obs::Counter::kServeRequests), 3);
  EXPECT_EQ(IdleClosed(server), 1);
#endif
}

TEST_F(ServeIdleTest, ZeroTimeoutKeepsSilentConnectionsOpen) {
  serve::ServeOptions options;
  options.idle_timeout_ms = 0;  // historical behavior: wait for hang-up
  serve::SearchServer server(searcher_.get(), options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(strings_[0].ToString()));
  EXPECT_NE(client.ReadLine().find("\"status\":\"ok\""), std::string::npos);

  // Far longer than several poll ticks: still answering afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  ASSERT_TRUE(client.SendLine(strings_[1].ToString()));
  EXPECT_NE(client.ReadLine().find("\"seq\":2"), std::string::npos);
  EXPECT_EQ(IdleClosed(server), 0);

  client.Close();
  server.Stop();
  EXPECT_EQ(IdleClosed(server), 0);
}

}  // namespace
}  // namespace ujoin
