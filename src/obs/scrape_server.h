#ifndef UJOIN_OBS_SCRAPE_SERVER_H_
#define UJOIN_OBS_SCRAPE_SERVER_H_

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace ujoin {
namespace obs {

// ---------------------------------------------------------------------------
// ScrapeServer
//
// A deliberately tiny HTTP/1.0 endpoint for Prometheus scrapes: one
// listening socket on 127.0.0.1, one accept thread, one connection handled
// at a time.  It serves exactly three paths —
//
//   GET /metrics       -> the most recent snapshot pushed via UpdateMetrics
//   GET /healthz       -> "ok" (or the body set via SetHealthBody; the serve
//                         layer installs a JSON build-info block here)
//   GET /debug/slow    -> the most recent page pushed via UpdateDebugPage
//                         (404 until a page has been pushed)
//   GET /debug/stalls  -> the most recent page pushed via UpdateStallsPage
//                         (404 until a page has been pushed; the watchdog
//                         pushes after every capture, so the page is live
//                         even while the stalled query is still running)
//
// and 404s everything else.  The join/search pipeline never blocks on a
// scrape: workers do not know the server exists.  The driver renders a
// Prometheus page at its own safe points (progress points of its fold,
// batch ends) and pushes the finished bytes with UpdateMetrics /
// UpdateDebugPage; the accept thread serves whatever snapshot it holds under
// a mutex held only for a string copy.  Scrapes therefore observe a
// consistent snapshot, never a half-merged recorder.
// ---------------------------------------------------------------------------

class ScrapeServer {
 public:
  ScrapeServer() = default;
  ~ScrapeServer() { Stop(); }

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, readable from
  /// port() afterwards) and starts the accept thread.  Call at most once.
  Status Start(int port);

  /// Stops the accept thread and closes the socket.  Idempotent; also run
  /// by the destructor.
  void Stop();

  /// The bound port, valid after a successful Start().
  int port() const { return port_; }

  /// Replaces the /metrics snapshot.  Callable from the driver thread while
  /// the accept thread serves; the new page is visible to the next scrape.
  void UpdateMetrics(std::string text);

  /// Replaces the /debug/slow snapshot (application/json).  Same contract
  /// as UpdateMetrics; the path 404s until the first push.
  void UpdateDebugPage(std::string json);

  /// Replaces the /debug/stalls snapshot (application/json).  Same contract
  /// as UpdateDebugPage; pushed by the watchdog after each capture.
  void UpdateStallsPage(std::string json);

  /// Replaces the /healthz body.  The default body "ok\n" is preserved when
  /// this is never called, so bare scrape endpoints (`ujoin_cli join
  /// --listen`) keep their historical health page.
  void SetHealthBody(std::string body);

  /// Snapshots served so far (across both paths); test/introspection aid.
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

 private:
  void Serve();
  void HandleConnection(int fd);

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> requests_served_{0};
  std::mutex mu_;
  std::string metrics_text_;        // guarded by mu_
  std::string debug_text_;          // guarded by mu_; empty = 404
  bool debug_set_ = false;          // guarded by mu_
  std::string stalls_text_;         // guarded by mu_; empty = 404
  bool stalls_set_ = false;         // guarded by mu_
  std::string health_body_ = "ok\n";  // guarded by mu_
};

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_SCRAPE_SERVER_H_
