#include "obs/scrape_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ujoin {
namespace obs {
namespace {

// Minimal blocking HTTP/1.0 client: sends one GET, reads to EOF.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ScrapeServerTest, ServesMetricsHealthzAnd404) {
  ScrapeServer server;
  server.UpdateMetrics("ujoin_probes_total 7\n");
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_EQ(BodyOf(metrics), "ujoin_probes_total 7\n");

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 3);
  server.Stop();
}

TEST(ScrapeServerTest, UpdateMetricsIsVisibleToLaterScrapes) {
  ScrapeServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // No snapshot pushed yet: /metrics serves the empty page, still 200.
  const std::string empty = HttpGet(server.port(), "/metrics");
  EXPECT_NE(empty.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(empty), "");

  server.UpdateMetrics("ujoin_probes_total 1\n");
  EXPECT_EQ(BodyOf(HttpGet(server.port(), "/metrics")),
            "ujoin_probes_total 1\n");
  server.UpdateMetrics("ujoin_probes_total 2\n");
  EXPECT_EQ(BodyOf(HttpGet(server.port(), "/metrics")),
            "ujoin_probes_total 2\n");
  server.Stop();
}

// Scrapes serve a consistent snapshot while the driver keeps pushing
// updates: every response body must be one of the pushed pages, never a
// torn mix.  Also the TSan exercise for the snapshot mutex.
TEST(ScrapeServerTest, ConcurrentScrapesAndUpdatesSeeWholePages) {
  ScrapeServer server;
  server.UpdateMetrics(std::string(1024, 'a') + "\n");
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  std::atomic<bool> done{false};
  std::thread updater([&server, &done] {
    for (char c = 'b'; c <= 'z'; ++c) {
      server.UpdateMetrics(std::string(1024, c) + "\n");
    }
    done.store(true);
  });

  int scrapes = 0;
  while (scrapes < 20 || !done.load()) {
    const std::string body = BodyOf(HttpGet(port, "/metrics"));
    ASSERT_EQ(body.size(), 1025u);
    // A whole page is one repeated character — a torn read would mix two.
    EXPECT_EQ(body.find_first_not_of(body[0]), body.size() - 1) << body[0];
    EXPECT_EQ(body.back(), '\n');
    ++scrapes;
  }
  updater.join();
  server.Stop();
}

TEST(ScrapeServerTest, DebugSlowPageServedAfterFirstPush) {
  ScrapeServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // Until the serve layer pushes a page there is nothing to show: 404, so
  // a scraper can tell "no slow-query tracking here" from "empty rings".
  EXPECT_NE(HttpGet(server.port(), "/debug/slow").find("HTTP/1.0 404"),
            std::string::npos);

  server.UpdateDebugPage("{\"schema\":\"ujoin.slow_queries\"}\n");
  const std::string slow = HttpGet(server.port(), "/debug/slow");
  EXPECT_NE(slow.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(slow.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(slow), "{\"schema\":\"ujoin.slow_queries\"}\n");
  server.Stop();
}

TEST(ScrapeServerTest, HealthBodyIsReplaceable) {
  ScrapeServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // Default stays the bare liveness probe (live_smoke.sh depends on it).
  const std::string plain = HttpGet(server.port(), "/healthz");
  EXPECT_NE(plain.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_EQ(BodyOf(plain), "ok\n");

  // The serve layer swaps in its build-info block; a JSON body switches
  // the content type.
  server.SetHealthBody("{\"status\":\"ok\",\"obs\":true}\n");
  const std::string json = HttpGet(server.port(), "/healthz");
  EXPECT_NE(json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(json), "{\"status\":\"ok\",\"obs\":true}\n");
  server.Stop();
}

// The /debug/slow page has the same whole-page snapshot contract as
// /metrics: concurrent pushes never produce a torn response.
TEST(ScrapeServerTest, ConcurrentDebugPageUpdatesSeeWholePages) {
  ScrapeServer server;
  server.UpdateDebugPage(std::string(512, 'a') + "\n");
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  std::atomic<bool> done{false};
  std::thread updater([&server, &done] {
    for (char c = 'b'; c <= 'z'; ++c) {
      server.UpdateDebugPage(std::string(512, c) + "\n");
    }
    done.store(true);
  });

  int scrapes = 0;
  while (scrapes < 20 || !done.load()) {
    const std::string body = BodyOf(HttpGet(port, "/debug/slow"));
    ASSERT_EQ(body.size(), 513u);
    EXPECT_EQ(body.find_first_not_of(body[0]), body.size() - 1) << body[0];
    ++scrapes;
  }
  updater.join();
  server.Stop();
}

TEST(ScrapeServerTest, StopIsIdempotentAndRefusesRequestsAfter) {
  ScrapeServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();
  EXPECT_NE(HttpGet(port, "/healthz").find("200 OK"), std::string::npos);
  server.Stop();
  server.Stop();  // second Stop is a no-op
  EXPECT_EQ(HttpGet(port, "/healthz"), "");
}

}  // namespace
}  // namespace obs
}  // namespace ujoin
