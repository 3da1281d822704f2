// serve_names: an in-process serve::SearchServer queried over loopback TCP
// by closed-loop clients.  See BENCHMARK.json for why it was chosen.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "join/search.h"
#include "obs/exposition.h"
#include "serve/protocol.h"
#include "serve/search_server.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ujoin::SimilaritySearcher;
using ujoin::UncertainString;
using ujoin::serve::SearchServer;

constexpr int kIndexed = 50000;
// Distinct queries of a run, and of the traced replay.  The timed phase
// takes them in slices of kSlice, one slice a round, so a run answers each
// query it reaches once: 20,000-30,000 in 50 s on the 4-vCPU VM where this
// was sized.
constexpr int kQueries = 40000;
constexpr int kSlice = 1000;
constexpr int kTracedQueries = 4000;
constexpr int kSetupReps = 3;
// Untimed passes before the timed phases: a warm-up over one connection
// (the first pass through a server connection thread runs markedly slower
// than later ones), then a pass over kWorkers connections sharing one
// query cursor, whose responses are checked like every other.
constexpr int kWarmup = 1000;
constexpr int kConcurrent = 2000;
constexpr int kMinRounds = 2;
// SearchServer::Stop() sets its stop flag and notifies the connection
// workers without holding their mailbox mutex, so a worker that is just
// entering its wait (after Start, or after its connection closed) can miss
// the wake-up, and Stop() then waits for it forever.  The harness lets a
// server sit idle this long before it stops it; every server it starts is
// held by a ServerPtr, so every path out stops it that way.
constexpr auto kQuiesce = std::chrono::milliseconds(200);
// Threads of the untimed in-process reference searches.
constexpr int kReferenceThreads = 4;

ujoin::DatasetOptions StreamOptions(uint64_t seed) {
  ujoin::DatasetOptions o;
  o.kind = ujoin::DatasetOptions::Kind::kNames;
  o.size = kIndexed + kQueries;  // the generator is prefix-stable
  o.theta = 0.2;
  o.gamma = 5;
  // As on join_names: with up to 6 uncertain positions, a few dozen
  // verification-heavy queries per seed made up the latency tail.
  o.max_uncertain_positions = 4;
  o.seed = RoundSeed(seed, 0);
  return o;
}

// Configured as `ujoin_cli serve` configures it: exact probabilities, no
// verification budget, no deadline.
ujoin::JoinOptions SearchOptions() {
  ujoin::JoinOptions o = ujoin::JoinOptions::Qfct(2, 0.1, 3);
  o.always_verify = true;
  return o;
}

ujoin::serve::ServeOptions ServerOptions() {
  ujoin::serve::ServeOptions o;
  o.port = 0;
  o.metrics_port = 0;  // /metrics on, so every batch renders a snapshot
  o.max_connections = kWorkers;
  return o;
}

// A response line without its per-connection `"seq":N,` member.
std::string StripSeq(const std::string& line) {
  static constexpr std::string_view kPrefix = "{\"seq\":";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return line;
  size_t i = kPrefix.size();
  while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
  if (i < line.size() && line[i] == ',') ++i;
  std::string out = "{";
  out.append(line, i, std::string::npos);
  return out;
}

// The reference response body of a search without limits (never inexact).
std::string ExpectedBody(const std::vector<ujoin::SearchHit>& hits) {
  std::string line = ujoin::serve::RenderHitsResponse(0, hits, false);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return StripSeq(line);
}

struct QuiesceAndStop {
  void operator()(SearchServer* server) const {
    std::this_thread::sleep_for(kQuiesce);
    server->Stop();
    delete server;
  }
};
using ServerPtr = std::unique_ptr<SearchServer, QuiesceAndStop>;

// One closed-loop client connection.  Each request is one query line plus
// the blank batch separator, so every batch holds one query and the
// server's per-batch request cap is never reached.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{};
    timeout.tv_sec = 60;  // a stalled response fails the request
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    broken_ = connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0;
    return !broken_;
  }

  // Sends `payload` and reads one response line (without its newline).
  // False on a refused, cut or timed-out exchange; the connection is then
  // unusable and every later request on it fails too.
  bool Request(const std::string& payload, std::string* line) {
    if (broken_) return false;
    for (size_t sent = 0; sent < payload.size();) {
      const ssize_t n = send(fd_, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return Break();
      sent += static_cast<size_t>(n);
    }
    size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Break();
      buf_.append(chunk, static_cast<size_t>(n));
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

 private:
  bool Break() {
    broken_ = true;
    return false;
  }
  int fd_ = -1;
  bool broken_ = false;
  std::string buf_;
};

struct Phase {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // per query index
};

// Sends queries [begin, begin + count) through `conns` clients sharing one
// cursor, then checks every response against `expected`.  Checking happens
// after the timed interval; failures count per request.
Phase RunPhase(std::vector<std::unique_ptr<Client>>& clients, int conns,
               const std::vector<std::string>& payloads,
               const std::vector<std::string>& expected, int begin, int count,
               Report* report) {
  Phase phase;
  phase.latency_ms.assign(static_cast<size_t>(count), 0.0);
  std::vector<std::string> responses(static_cast<size_t>(count));
  std::vector<char> transport_ok(static_cast<size_t>(count), 0);
  std::atomic<int> cursor{0};
  const auto worker = [&](int c) {
    Client& client = *clients[static_cast<size_t>(c)];
    for (int i; (i = cursor.fetch_add(1)) < count;) {
      const size_t r = static_cast<size_t>(i);
      ujoin::Timer timer;
      const bool ok = client.Request(payloads[static_cast<size_t>(begin + i)],
                                     &responses[r]);
      phase.latency_ms[r] = 1e-6 * static_cast<double>(timer.ElapsedNanos());
      transport_ok[r] = ok ? 1 : 0;
    }
  };
  ujoin::Timer wall;
  std::vector<std::thread> threads;
  for (int c = 1; c < conns; ++c) threads.emplace_back(worker, c);
  worker(0);
  for (std::thread& t : threads) t.join();
  phase.wall_s = wall.ElapsedSeconds();

  for (size_t r = 0; r < static_cast<size_t>(count); ++r) {
    const size_t q = static_cast<size_t>(begin) + r;
    const bool ok =
        transport_ok[r] != 0 && StripSeq(responses[r]) == expected[q];
    if (!ok) {
      report->Mismatch("query " + std::to_string(q) + ": got '" +
                       responses[r].substr(0, 120) + "'");
    }
    report->Attempt(ok);
  }
  return phase;
}

struct Stream {
  ujoin::Alphabet alphabet;
  std::string index_text;
  std::string query_text;
  std::vector<std::string> payloads;  // "<query>\n\n"
};

Stream MakeStream(uint64_t seed) {
  const ujoin::Dataset data = ujoin::GenerateDataset(StreamOptions(seed));
  Stream s{data.alphabet, ToText(data.strings, 0, kIndexed),
           ToText(data.strings, kIndexed, kIndexed + kQueries), {}};
  for (int i = kIndexed; i < kIndexed + kQueries; ++i) {
    s.payloads.push_back(data.strings[static_cast<size_t>(i)].ToString() +
                         "\n\n");
  }
  return s;
}

bool OpenClients(int port, std::vector<std::unique_ptr<Client>>* clients,
                 Report* report) {
  for (int c = 0; c < kWorkers; ++c) {
    clients->push_back(std::make_unique<Client>());
    if (!clients->back()->Connect(port)) {
      report->Attempt(false);
      report->Mismatch("connect refused");
      return false;
    }
  }
  return true;
}

void RunUntraced(const RunArgs& args, Report* report) {
  ujoin::Timer run_clock;
  const Stream stream = MakeStream(args.seed);
  std::printf("workload serve_names: %d indexed, %d queries in slices of %d\n",
              kIndexed, kQueries, kSlice);

  // Time to ready: parse, build, start.  Repeated; the last one serves.
  std::vector<double> setup_s;
  std::optional<SimilaritySearcher> searcher;
  ServerPtr server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    searcher.reset();
    ujoin::Timer timer;
    std::vector<UncertainString> collection;
    if (!ParseLines(stream.index_text, stream.alphabet, &collection)) {
      report->Attempt(false);
      report->Mismatch("index text does not parse");
      return;
    }
    ujoin::Result<SimilaritySearcher> created = SimilaritySearcher::Create(
        std::move(collection), stream.alphabet, SearchOptions());
    if (!created.ok()) {
      report->Attempt(false);
      report->Mismatch("Create failed: " + created.status().ToString());
      return;
    }
    searcher.emplace(std::move(created).value());
    server.reset(new SearchServer(&*searcher, ServerOptions()));
    const ujoin::Status started = server->Start();
    setup_s.push_back(timer.ElapsedSeconds());
    report->Attempt(started.ok());
    if (!started.ok()) {
      report->Mismatch("Start failed: " + started.ToString());
      return;
    }
  }

  // Reference answers, computed in-process outside every timed phase, up
  // to the last query a pass will send.
  std::vector<UncertainString> queries;
  if (!ParseLines(stream.query_text, stream.alphabet, &queries)) {
    report->Attempt(false);
    report->Mismatch("query text does not parse");
    return;
  }
  std::vector<std::string> expected;
  const auto reference_upto = [&](int end) {
    if (static_cast<size_t>(end) <= expected.size()) return true;
    const std::vector<UncertainString> batch(
        queries.begin() + static_cast<std::ptrdiff_t>(expected.size()),
        queries.begin() + end);
    ujoin::Result<std::vector<std::vector<ujoin::SearchHit>>> hits =
        searcher->SearchMany(batch, kReferenceThreads);
    if (!hits.ok()) {
      report->Attempt(false);
      report->Mismatch("SearchMany failed");
      return false;
    }
    for (const auto& h : *hits) expected.push_back(ExpectedBody(h));
    return true;
  };

  std::vector<std::unique_ptr<Client>> clients;
  if (!OpenClients(server->port(), &clients, report)) return;
  if (!reference_upto(std::max(kWarmup, kConcurrent))) return;
  RunPhase(clients, 1, stream.payloads, expected, 0, kWarmup, report);
  RunPhase(clients, kWorkers, stream.payloads, expected, 0, kConcurrent,
           report);

  // Each round answers the next slice of queries over one connection,
  // until --seconds have passed since the run began (at least kMinRounds
  // rounds): a round starts while half of the last one still fits.
  double wall_s = 0.0, answered = 0.0, round_s = 0.0;
  std::vector<double> latency;
  int rounds = 0;
  for (; rounds < kQueries / kSlice; ++rounds) {
    if (rounds >= kMinRounds &&
        run_clock.ElapsedSeconds() + 0.5 * round_s >
            static_cast<double>(args.seconds)) {
      break;
    }
    ujoin::Timer round_clock;
    if (!reference_upto((rounds + 1) * kSlice)) return;
    const Phase phase = RunPhase(clients, 1, stream.payloads, expected,
                                 rounds * kSlice, kSlice, report);
    wall_s += phase.wall_s;
    latency.insert(latency.end(), phase.latency_ms.begin(),
                   phase.latency_ms.end());
    answered += kSlice;
    round_s = round_clock.ElapsedSeconds();
  }
  clients.clear();
  server.reset();  // outside every timed interval
  std::printf("rounds %d (%.0f queries) in %.1f s\n", rounds, answered,
              run_clock.ElapsedSeconds());

  EndToEnd m;
  m.setup_s = Median(setup_s);
  m.ops_per_s = answered / wall_s;
  m.latency_p50 = ComputePercentile(latency, 50);
  m.latency_p99 = ComputePercentile(latency, 99);
  m.peak_rss_mb = PeakRssMb();
  m.index_bytes_per_byte = static_cast<double>(searcher->IndexMemoryUsage()) /
                           static_cast<double>(stream.index_text.size());
  EmitEndToEnd(m, report);
}

// Per-query stage times of the replay, from the JoinStats Search returns.
struct QueryStages {
  double search_ms, index_ms, filter_ms, verify_ms;
};

void PrintStageSplit(std::vector<QueryStages> stages, double lo, double hi,
                     const char* label) {
  std::sort(stages.begin(), stages.end(),
            [](const QueryStages& a, const QueryStages& b) {
              return a.search_ms < b.search_ms;
            });
  const size_t n = stages.size();
  const size_t begin = static_cast<size_t>(lo * static_cast<double>(n));
  const size_t end = std::min(n, static_cast<size_t>(hi * static_cast<double>(n)));
  QueryStages sum{0, 0, 0, 0};
  for (size_t i = begin; i < end; ++i) {
    sum.search_ms += stages[i].search_ms;
    sum.index_ms += stages[i].index_ms;
    sum.filter_ms += stages[i].filter_ms;
    sum.verify_ms += stages[i].verify_ms;
  }
  const double count = static_cast<double>(std::max<size_t>(end - begin, 1));
  std::printf(
      "split %s (%zu queries): search %.4f ms = index %.4f + filter %.4f + "
      "verify %.4f + other %.4f; index probe %s verification\n",
      label, end - begin, sum.search_ms / count, sum.index_ms / count,
      sum.filter_ms / count, sum.verify_ms / count,
      (sum.search_ms - sum.index_ms - sum.filter_ms - sum.verify_ms) / count,
      sum.index_ms > sum.verify_ms ? "outweighs" : "does not outweigh");
}

void RunTraced(const RunArgs& args, Report* report) {
  const Stream stream = MakeStream(args.seed);
  std::printf("workload serve_names (traced): %d indexed, %d queries\n",
              kIndexed, kTracedQueries);
  SpanTrace trace;

  // Set-up, traced: parse, Create, Start.
  const uint32_t setup = trace.Begin("serve.setup", Layer::kReplay, 0, -1);
  std::vector<UncertainString> collection;
  if (!ParseLines(stream.index_text, stream.alphabet, &collection, &trace,
                  setup)) {
    report->Attempt(false);
    report->Mismatch("index text does not parse");
    return;
  }
  int max_length = 0;
  for (const UncertainString& s : collection) {
    max_length = std::max(max_length, s.length());
  }
  const uint32_t build = trace.Begin("index.build", Layer::kIndex, setup, -1);
  ujoin::Result<SimilaritySearcher> created = SimilaritySearcher::Create(
      std::move(collection), stream.alphabet, SearchOptions());
  trace.End(build);
  if (!created.ok()) {
    report->Attempt(false);
    report->Mismatch("Create failed");
    return;
  }
  const SimilaritySearcher searcher = std::move(created).value();
  ServerPtr server(new SearchServer(&searcher, ServerOptions()));
  const uint32_t start = trace.Begin("serve.start", Layer::kServe, setup, -1);
  const ujoin::Status started = server->Start();
  trace.End(start);
  trace.End(setup);
  report->Attempt(started.ok());
  if (!started.ok()) {
    report->Mismatch("Start failed");
    return;
  }

  // Untraced one-connection pass: client latencies for the overhead
  // figure.  Responses are checked against the replay below.
  std::vector<UncertainString> queries;
  if (!ParseLines(stream.query_text, stream.alphabet, &queries)) {
    report->Attempt(false);
    report->Mismatch("query text does not parse");
    return;
  }
  std::vector<std::unique_ptr<Client>> clients;
  if (!OpenClients(server->port(), &clients, report)) return;
  std::vector<std::string> responses(kTracedQueries);
  std::vector<double> client_ms(kTracedQueries);
  bool transport_ok = true;
  for (int pass = 0; pass < 2; ++pass) {
    const int count = pass == 0 ? kWarmup : kTracedQueries;
    for (int i = 0; i < count; ++i) {
      const size_t q = static_cast<size_t>(i);
      ujoin::Timer timer;
      transport_ok &= clients[0]->Request(stream.payloads[q], &responses[q]);
      client_ms[q] = 1e-6 * static_cast<double>(timer.ElapsedNanos());
    }
  }
  clients.clear();
  const ujoin::obs::Recorder serve_metrics = server->ServeMetrics();

  // In-process replay of the same queries: Parse, Search, render.
  ujoin::QueryWorkspace workspace;
  ujoin::JoinStats total;
  std::vector<QueryStages> stages;
  std::vector<double> search_ms;
  std::vector<std::string> rendered(kTracedQueries);
  int64_t index_queries = 0;
  const int k = searcher.options().k;
  const uint32_t replay = trace.Begin("serve.replay", Layer::kReplay, 0, -1);
  const int64_t replay_start = trace.NowNs();
  for (int i = 0; i < kTracedQueries; ++i) {
    const size_t q = static_cast<size_t>(i);
    const uint32_t query_span = trace.Begin("serve.query", Layer::kReplay,
                                            replay, i);
    const std::string_view line(stream.payloads[q].data(),
                                stream.payloads[q].size() - 2);
    const uint32_t parse = trace.Begin("text.parse", Layer::kText, query_span, i);
    ujoin::Result<UncertainString> query =
        UncertainString::Parse(line, stream.alphabet);
    trace.End(parse);
    if (!query.ok()) {
      report->Attempt(false);
      report->Mismatch("query does not parse");
      return;
    }
    ujoin::JoinStats stats;
    const uint32_t search = trace.Begin("join.search", Layer::kJoin, query_span, i);
    ujoin::Result<std::vector<ujoin::SearchHit>> hits =
        searcher.Search(*query, &stats, &workspace);
    trace.End(search);
    const Span& s = trace.spans()[search - 1];
    int64_t t = s.start_ns;
    const auto stage = [&](const char* name, Layer layer, double seconds) {
      const int64_t ns = static_cast<int64_t>(seconds * 1e9);
      trace.AddClosed(name, layer, search, i, t, ns);
      t += ns;
    };
    stage("index.query", Layer::kIndex, stats.qgram_time);
    stage("filter.freq", Layer::kFilter, stats.freq_time);
    stage("filter.cdf", Layer::kFilter, stats.cdf_time);
    stage("verify.pairs", Layer::kVerify, stats.verify_time);
    const uint32_t render = trace.Begin("serve.render", Layer::kServe,
                                        query_span, i);
    if (hits.ok()) {
      rendered[q] = ujoin::serve::RenderHitsResponse(i + 1, *hits,
                                                     stats.Inexact());
    }
    trace.End(render);
    trace.End(query_span);
    report->Attempt(hits.ok());
    if (!hits.ok()) {
      report->Mismatch("Search failed");
      return;
    }
    const int lo = std::max(1, query->length() - k);
    const int hi = std::min(max_length, query->length() + k);
    index_queries += std::max(0, hi - lo + 1);
    const double ms = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    search_ms.push_back(ms);
    stages.push_back(QueryStages{ms, 1e3 * stats.qgram_time,
                                 1e3 * (stats.freq_time + stats.cdf_time),
                                 1e3 * stats.verify_time});
    total.Merge(stats);
  }
  trace.End(replay);
  const double replay_s = 1e-9 * static_cast<double>(trace.NowNs() - replay_start);

  // The /metrics snapshot a batch renders when the scrape endpoint is on.
  const uint32_t snapshots = trace.Begin("obs.snapshots", Layer::kReplay, 0, -1);
  for (int rep = 0; rep < 50; ++rep) {
    ScopedSpan span(&trace, "obs.snapshot", Layer::kObs, snapshots, rep);
    ujoin::obs::Recorder merged = server->QueryMetrics();
    merged.Merge(server->ServeMetrics());
    const std::string page = ujoin::obs::RenderPrometheusText(merged) +
                             server->SlowQueriesJson();
    if (page.empty()) report->Mismatch("empty /metrics snapshot");
  }
  trace.End(snapshots);
  server.reset();

  // Untraced replay of the same loop: the base of the overhead ratio.
  ujoin::Timer untraced;
  for (int i = 0; i < kTracedQueries; ++i) {
    const size_t q = static_cast<size_t>(i);
    const std::string_view line(stream.payloads[q].data(),
                                stream.payloads[q].size() - 2);
    ujoin::Result<UncertainString> query =
        UncertainString::Parse(line, stream.alphabet);
    if (!query.ok()) continue;  // reported by the traced replay
    ujoin::JoinStats stats;
    ujoin::Result<std::vector<ujoin::SearchHit>> hits =
        searcher.Search(*query, &stats, &workspace);
    const bool same =
        hits.ok() && ujoin::serve::RenderHitsResponse(
                         i + 1, *hits, stats.Inexact()) == rendered[q];
    if (!same) report->Mismatch("untraced replay differs");
    report->Attempt(same);
  }
  const double untraced_s = untraced.ElapsedSeconds();

  std::vector<double> overhead_ms;
  for (size_t q = 0; q < static_cast<size_t>(kTracedQueries); ++q) {
    std::string want = rendered[q];
    if (!want.empty() && want.back() == '\n') want.pop_back();
    const bool ok = transport_ok && StripSeq(responses[q]) == StripSeq(want);
    if (!ok) report->Mismatch("served response differs from replay");
    report->Attempt(ok);
    overhead_ms.push_back(client_ms[q] - search_ms[q]);
  }

  LayerMetrics m;
  const std::vector<double> self = trace.SelfSecondsByLayer();
  m.text_parse_s = trace.NameSeconds("text.parse");
  m.index_query_s = trace.NameSeconds("index.query");
  m.index_queries = index_queries;
  m.index_postings_scanned = total.index_stats.postings_scanned;
  m.index_candidate_ratio =
      Ratio{static_cast<double>(total.qgram_candidates),
            static_cast<double>(total.length_compatible_pairs)};
  m.index_build_s = trace.NameSeconds("index.build");
  m.index_mb = static_cast<double>(searcher.IndexMemoryUsage()) / 1e6;
  m.filter_freq_s = trace.NameSeconds("filter.freq");
  m.filter_freq_pass_ratio = Ratio{static_cast<double>(total.freq_candidates),
                                   static_cast<double>(total.qgram_candidates)};
  m.filter_cdf_s = trace.NameSeconds("filter.cdf");
  m.filter_cdf_accept_ratio = Ratio{static_cast<double>(total.cdf_accepted),
                                    static_cast<double>(total.freq_candidates)};
  m.filter_cdf_undecided_ratio =
      Ratio{static_cast<double>(total.cdf_undecided),
            static_cast<double>(total.freq_candidates)};
  m.verify_s = self[static_cast<size_t>(Layer::kVerify)];
  m.verify_pairs = total.verified_pairs;
  m.verify_similar_ratio = Ratio{static_cast<double>(total.result_pairs),
                                 static_cast<double>(total.verified_pairs)};
  m.verify_explored_nodes = total.verify_stats.explored_s_nodes;
  m.join_traced_s = trace.RootSeconds();
  m.join_unattributed_s = self[static_cast<size_t>(Layer::kReplay)];
  m.join_trace_overhead_ratio = Ratio{replay_s, untraced_s};
  m.serve_search_ms_p50 = ComputePercentile(search_ms, 50);
  m.serve_search_ms_p99 = ComputePercentile(search_ms, 99);
  m.serve_overhead_ms_p50_t1 = ComputePercentile(overhead_ms, 50);
  std::vector<double> render_us = trace.DurationsMs("serve.render");
  for (double& v : render_us) v *= 1e3;
  m.serve_render_us = Median(render_us);
  m.serve_batches =
      serve_metrics.counter(ujoin::obs::Counter::kServeBatches);
  m.serve_errors =
      serve_metrics.counter(ujoin::obs::Counter::kServeRequestErrors);
  std::vector<double> snapshot_us = trace.DurationsMs("obs.snapshot");
  for (double& v : snapshot_us) v *= 1e3;
  m.obs_snapshot_us = Median(snapshot_us);
  EmitLayerMetrics(m, report);

  PrintStageSplit(stages, 0.45, 0.55, "p45-p55");
  PrintStageSplit(stages, 0.99, 1.0, "p99-p100");
  if (!PrintLayerShares(trace, m.join_traced_s)) {
    report->Mismatch("traced layer times do not add up to the traced total");
  }
  if (!args.trace_out.empty()) {
    if (trace.WriteChromeJson(args.trace_out)) {
      std::printf("trace %zu spans written to %s\n", trace.spans().size(),
                  args.trace_out.c_str());
    } else {
      std::printf("trace could not be written to %s\n", args.trace_out.c_str());
    }
  }
}

}  // namespace

void RunServeWorkload(const RunArgs& args, Report* report) {
  if (args.trace) {
    RunTraced(args, report);
  } else {
    RunUntraced(args, report);
  }
}

}  // namespace perfbench
