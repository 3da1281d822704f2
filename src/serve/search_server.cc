#include "serve/search_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "obs/exposition.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "text/uncertain_string.h"

namespace ujoin {
namespace serve {

namespace {

/// Sends all of `data`, tolerating short writes.  MSG_NOSIGNAL turns a peer
/// that hung up into an error return instead of SIGPIPE.
void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

SearchServer::SearchServer(const SimilaritySearcher* searcher,
                           const ServeOptions& options)
    : searcher_(searcher),
      options_(options),
      pool_(options.max_connections),
      mailbox_(static_cast<size_t>(options.max_connections)) {}

SearchServer::~SearchServer() { Stop(); }

Status SearchServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IoError("socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    // std::strerror may return a static buffer; workers share this process.
    return Status::IoError("bind(127.0.0.1:" + std::to_string(options_.port) +
                           ") failed: " +
                           std::system_category().message(errno));
  }
  if (listen(listen_fd_, 16) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = options_.port;
  }

  if (options_.metrics_port >= 0) {
    const Status scrape_status = scrape_.Start(options_.metrics_port);
    if (!scrape_status.ok()) {
      close(listen_fd_);
      listen_fd_ = -1;
      return scrape_status;
    }
    scrape_running_ = true;
    // Serve identifies itself on /healthz: build-info block instead of the
    // bare scrape endpoint's "ok".
    scrape_.SetHealthBody(RenderServeHealth(*searcher_));
  }

  if (options_.watchdog_ms > 0) {
    watchdog_ = std::make_unique<obs::Watchdog>(obs::GlobalFlightRecorder());
    if (scrape_running_) {
      // The watchdog thread pushes a fresh stalls page after every capture;
      // publish the empty page now so /debug/stalls is live (zero stalls)
      // from the first scrape rather than 404 until the first capture.
      watchdog_->set_push_fn(
          [this](const std::string& json) { scrape_.UpdateStallsPage(json); });
      scrape_.UpdateStallsPage(watchdog_->StallsJson());
    }
    obs::WatchdogOptions wd;
    wd.stall_ns = options_.watchdog_ms * 1'000'000;
    wd.dump_path = options_.watchdog_dump_path;
    watchdog_->Start(wd);
  }

  stop_.store(false, std::memory_order_relaxed);
  {
    // Publish the empty snapshot so a scrape before the first batch sees a
    // complete (all-zero) page instead of an empty body.
    std::lock_guard<std::mutex> lock(agg_mu_);
    PushSnapshotLocked();
  }
  workers_.reserve(static_cast<size_t>(options_.max_connections));
  for (int slot = 0; slot < options_.max_connections; ++slot) {
    workers_.emplace_back(&SearchServer::ConnectionWorker, this, slot);
  }
  accept_thread_ = std::thread(&SearchServer::AcceptLoop, this);
  return Status::OK();
}

void SearchServer::Stop() {
  if (!accept_thread_.joinable()) return;
  {
    // Set the flag under the mailbox lock: an idle worker evaluates its
    // wait predicate under this lock, so it either sees the flag or is
    // already waiting when the notify below arrives.
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  mailbox_cv_.notify_all();
  accept_thread_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (watchdog_ != nullptr) watchdog_->Stop();
  {
    std::lock_guard<std::mutex> lock(agg_mu_);
    PushSnapshotLocked();
  }
  if (scrape_running_) {
    scrape_.Stop();
    scrape_running_ = false;
  }
}

int SearchServer::metrics_port() const {
  return scrape_running_ ? scrape_.port() : -1;
}

obs::Recorder SearchServer::QueryMetrics() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return query_metrics_;
}

obs::Recorder SearchServer::ServeMetrics() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return serve_metrics_;
}

JoinStats SearchServer::Stats() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return stats_;
}

std::vector<obs::QueryLogRecord> SearchServer::SlowQueriesByVerifyWorlds()
    const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return slow_by_worlds_.Records();
}

std::vector<obs::QueryLogRecord> SearchServer::SlowQueriesByLatency() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return slow_by_latency_.Records();
}

std::string SearchServer::SlowQueriesJson() const {
  std::lock_guard<std::mutex> lock(agg_mu_);
  return obs::RenderSlowQueriesPage(slow_by_worlds_, slow_by_latency_);
}

int64_t SearchServer::WatchdogCaptures() const {
  return watchdog_ != nullptr ? watchdog_->captures() : 0;
}

std::string SearchServer::StallsJson() const {
  return watchdog_ != nullptr
             ? watchdog_->StallsJson()
             : obs::RenderStallsPage({}, /*captures=*/0);
}

void SearchServer::AcceptLoop() {
  // Poll-with-timeout instead of a bare blocking accept (the ScrapeServer
  // idiom): the 100 ms tick is how Stop() gets the thread's attention
  // without racing a close() against an accept() in flight.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int slot = pool_.TryAcquire();
    if (slot < 0) {
      // Admission control: every workspace is leased to a live connection.
      {
        std::lock_guard<std::mutex> lock(agg_mu_);
        UJOIN_OBS_COUNTER(&serve_metrics_,
                          obs::Counter::kServeRejectedConnections, 1);
      }
      SendAll(fd, RenderBusyResponse());
      close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(agg_mu_);
      UJOIN_OBS_COUNTER(&serve_metrics_, obs::Counter::kServeConnections, 1);
    }
    const int64_t conn = ++connections_accepted_;
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      mailbox_[static_cast<size_t>(slot)] = Mail{fd, conn};
    }
    mailbox_cv_.notify_all();
  }
}

void SearchServer::ConnectionWorker(int slot) {
  for (;;) {
    Mail mail;
    {
      std::unique_lock<std::mutex> lock(mailbox_mu_);
      mailbox_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               mailbox_[static_cast<size_t>(slot)].fd >= 0;
      });
      mail = mailbox_[static_cast<size_t>(slot)];
      if (mail.fd < 0) return;  // stop requested while idle
    }
    HandleConnection(mail.fd, slot, mail.conn);
    close(mail.fd);
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      mailbox_[static_cast<size_t>(slot)] = Mail{};
    }
    // Mailbox is idle again before the lease returns, so an accept that
    // re-acquires this slot always finds the worker ready.
    pool_.Release(slot);
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void SearchServer::HandleConnection(int fd, int slot, int64_t conn) {
  UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kConnOpen, conn, 0);
  QueryWorkspace* const workspace = pool_.workspace(slot);
  LineFramer framer(options_.max_request_bytes);
  BatchGuard guard(options_.max_batch_requests, options_.max_batch_bytes);
  // Per-connection query-log buffer: records accumulate allocation-free and
  // flush to the shared log at batch boundaries (FinishBatch).
  obs::QueryLogBuffer log_buffer;
  int64_t seq = 0;
  int64_t batch_queries = 0;
  std::string line;
  char buf[4096];
  bool open = true;
  // Answers one request with an error: response, optional query-log record,
  // and the run-level fold.
  const auto answer_error = [&](const std::string& message,
                                int64_t query_length) {
    SendAll(fd, RenderErrorResponse(seq, message));
    const obs::QueryLogRecord record = MakeQueryLogRecord(
        JoinStats{}, conn, seq, query_length, /*hits=*/0, /*error=*/true);
    if (options_.query_log != nullptr) {
      log_buffer.Add(record);
      if (log_buffer.full()) log_buffer.FlushTo(options_.query_log);
    }
    FoldQuery(JoinStats{}, obs::Recorder{}, /*error=*/true, &record,
              /*spans=*/nullptr);
  };
  // Idle keep-alive accounting rides the existing 100 ms poll tick: a tick
  // with no readable bytes adds to the idle run, any received byte resets
  // it.  Granularity is therefore one tick, which is all a keep-alive
  // timeout needs.
  int64_t idle_ms = 0;
  while (open && !stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0) break;
    if (ready == 0) {
      if (options_.idle_timeout_ms > 0) {
        idle_ms += 100;
        if (idle_ms >= options_.idle_timeout_ms) {
          UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kConnIdleClose, conn,
                                 idle_ms);
          std::lock_guard<std::mutex> lock(agg_mu_);
          UJOIN_OBS_COUNTER(&serve_metrics_,
                            obs::Counter::kServeIdleClosedConnections, 1);
          break;  // final batch flushes below, like a peer hang-up
        }
      }
      continue;
    }
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF or error: final batch flushes below
    idle_ms = 0;
    framer.Append(buf, static_cast<size_t>(n));
    while (open && framer.NextLine(&line)) {
      if (line.empty()) {
        // Batch separator: fold boundary and snapshot push.
        guard.Reset();
        if (batch_queries > 0) {
          FinishBatch(batch_queries, &log_buffer);
          batch_queries = 0;
        }
        continue;
      }
      ++seq;
      ++batch_queries;
      if (!guard.AddRequest(line.size())) {
        // Oversized batch: the batch contract is broken, so answer once and
        // drop the connection (like a lost frame boundary).
        answer_error(guard.ViolationMessage(), /*query_length=*/0);
        open = false;
        continue;
      }
      if (line.size() > framer.max_line_bytes()) {
        answer_error("request line exceeds " +
                         std::to_string(framer.max_line_bytes()) + " bytes",
                     /*query_length=*/0);
        continue;
      }
      Result<UncertainString> query =
          UncertainString::Parse(line, searcher_->alphabet());
      if (!query.ok()) {
        answer_error(std::string(query.status().message()),
                     /*query_length=*/0);
        continue;
      }
      JoinStats query_stats;
      obs::Recorder query_rec;
      obs::SpanCollector spans;  // disabled unless a trace sink is attached
      obs::SpanCollector* span_sink = nullptr;
      if (options_.trace != nullptr) {
        spans = obs::SpanCollector(options_.trace,
                                   static_cast<uint32_t>(slot) + 1);
        span_sink = &spans;
      }
      // Stamp serve attribution on this thread's in-flight block before the
      // query opens its epoch, so a watchdog capture can name (conn, seq).
      UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kServeQuery, conn, seq);
      Result<std::vector<SearchHit>> hits =
          searcher_->Search(*query, &query_stats, workspace, &query_rec,
                            span_sink, &options_.limits);
      if (!hits.ok()) {
        answer_error(std::string(hits.status().message()), query->length());
        continue;
      }
      SendAll(fd, RenderHitsResponse(seq, *hits, query_stats.Inexact()));
      const obs::QueryLogRecord record = MakeQueryLogRecord(
          query_stats, conn, seq, query->length(),
          static_cast<int64_t>(hits->size()), /*error=*/false);
      if (options_.query_log != nullptr) {
        log_buffer.Add(record);
        if (log_buffer.full()) log_buffer.FlushTo(options_.query_log);
      }
      FoldQuery(query_stats, query_rec, /*error=*/false, &record, span_sink);
    }
    if (framer.PartialOverLimit()) {
      // No frame boundary within the cap: the stream cannot be
      // re-synchronized, so answer once and drop the connection.
      ++seq;
      ++batch_queries;
      answer_error("request line exceeds " +
                       std::to_string(framer.max_line_bytes()) +
                       " bytes without a newline",
                   /*query_length=*/0);
      open = false;
    }
  }
  if (batch_queries > 0) FinishBatch(batch_queries, &log_buffer);
  UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kConnClose, conn, seq);
}

void SearchServer::FoldQuery(const JoinStats& query_stats,
                             const obs::Recorder& query_rec, bool error,
                             const obs::QueryLogRecord* record,
                             const obs::SpanCollector* spans) {
  std::lock_guard<std::mutex> lock(agg_mu_);
  stats_.Merge(query_stats);
  query_metrics_.Merge(query_rec);
  UJOIN_OBS_COUNTER(&serve_metrics_, obs::Counter::kServeRequests, 1);
  if (error) {
    UJOIN_OBS_COUNTER(&serve_metrics_, obs::Counter::kServeRequestErrors, 1);
  }
  if (record != nullptr) {
    slow_by_worlds_.Offer(*record);
    slow_by_latency_.Offer(*record);
  }
  if (options_.trace != nullptr && spans != nullptr) {
    // Probe indexes are assigned in fold order; the sampler verdict plus
    // the slow-keep threshold decide whether this query's spans survive.
    // Append under agg_mu_ keeps the recorder single-writer.
    const int64_t idx = trace_probe_index_++;
    const bool keep = options_.trace->KeepProbe(
        options_.trace->SampleProbe(idx), record->total_ns);
    options_.trace->NoteProbe(keep);
    if (keep) options_.trace->Append(spans->events());
  }
}

void SearchServer::FinishBatch(int64_t batch_queries,
                               obs::QueryLogBuffer* log_buffer) {
  // Flush outside the aggregate lock: rendering + file IO must not block
  // other connections' folds.
  if (log_buffer != nullptr) log_buffer->FlushTo(options_.query_log);
  UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kBatchBoundary, batch_queries, 0);
  std::lock_guard<std::mutex> lock(agg_mu_);
  UJOIN_OBS_COUNTER(&serve_metrics_, obs::Counter::kServeBatches, 1);
  UJOIN_OBS_HIST(&serve_metrics_, obs::Hist::kServeBatchSize, batch_queries);
  PushSnapshotLocked();
}

void SearchServer::PushSnapshotLocked() {
  if (watchdog_ != nullptr) {
    // Fold the watchdog's lifetime capture count into the serve recorder as
    // a delta, so the counter is monotone no matter how often we snapshot.
    const int64_t captures = watchdog_->captures();
    UJOIN_OBS_COUNTER(&serve_metrics_, obs::Counter::kWatchdogStallsCaptured,
                      captures - watchdog_captures_folded_);
    watchdog_captures_folded_ = captures;
  }
  if (!scrape_running_) return;
  obs::Recorder merged = query_metrics_;
  merged.Merge(serve_metrics_);
  scrape_.UpdateMetrics(obs::RenderPrometheusText(merged));
  scrape_.UpdateDebugPage(
      obs::RenderSlowQueriesPage(slow_by_worlds_, slow_by_latency_));
}

}  // namespace serve
}  // namespace ujoin
