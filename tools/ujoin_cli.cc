// ujoin command-line tool: generate datasets, run similarity joins and
// searches on files of uncertain strings (one string per line in the
// paper's `A{(C,0.5),(G,0.5)}A` notation).
//
// Usage:
//   ujoin_cli generate --kind=names|protein --size=N [--theta=0.2]
//              [--gamma=5] [--seed=42] [--max-uncertain=0] --out=FILE
//   ujoin_cli join --input=FILE --kind=names|protein [--k=2] [--tau=0.1]
//              [--q=3] [--variant=QFCT|QCT|QFT|FCT] [--exact]
//              [--threads=1] [--out=FILE]
//              [--metrics-out=FILE] [--trace-out=FILE] [--trace-sample=N]
//              [--prom-out=FILE] [--listen=PORT] [--listen-hold] [--progress]
//              [--flight-record[=FILE]] [--watchdog-ms=N]
//              (prints one "lhs<TAB>rhs<TAB>probability" line per pair; a
//               pair decided by its (k, tau) verdict carries a certified
//               lower bound marked "(lower bound)", unless --exact asks for
//               exact probabilities.  The pair set is the same either way.
//               --threads=0 uses all cores; results are identical for
//               every thread count)
//   ujoin_cli index --input=FILE --kind=names|protein [--k=2] [--tau=0.1]
//              [--q=3] --out=FILE.idx
//   ujoin_cli search (--input=FILE | --index=FILE.idx) --kind=names|protein
//              (--query=STRING | --queries=FILE) [--k=2] [--tau=0.1] [--q=3]
//              [--topk=N] [--threads=1] [--query-log=FILE]
//              [--metrics-out=FILE] [--trace-out=FILE] [--trace-sample=N]
//              [--slow-trace-ms=N]
//              [--prom-out=FILE] [--listen=PORT] [--listen-hold]
//              [--flight-record[=FILE]] [--watchdog-ms=N]
//              (--queries runs the whole file through SearchMany and prints
//               aggregated filter/verification statistics; the stats are
//               identical for every --threads value.  --query-log writes one
//               ujoin.query_log JSONL record per query; see DESIGN.md
//               "Per-query diagnostics".)
//   ujoin_cli explain (--input=FILE | --index=FILE.idx) --kind=names|protein
//              --query=STRING [--k=2] [--tau=0.1] [--q=3]
//              [--max-verify-worlds=0] [--deadline-ms=0] [--out=FILE]
//              [--no-timing]
//              (replays one query and prints the full funnel narrative: a
//               versioned ujoin.explain JSON envelope on stdout (or --out)
//               plus a human-readable account on stderr.  With --no-timing
//               the envelope is byte-identical across runs for the same
//               index, query, and limits.)
//   ujoin_cli stats --input=FILE --kind=names|protein
//   ujoin_cli serve (--input=FILE | --index=FILE.idx) --kind=names|protein
//              [--k=2] [--tau=0.1] [--q=3] [--port=0] [--metrics-port=-1]
//              [--max-connections=4] [--max-verify-worlds=0]
//              [--deadline-ms=0] [--max-request-bytes=65536]
//              [--max-batch-requests=1024] [--max-batch-bytes=1048576]
//              [--query-log=FILE] [--trace-out=FILE] [--trace-sample=N]
//              [--slow-trace-ms=N] [--idle-timeout-ms=0]
//              [--flight-record[=FILE]] [--watchdog-ms=N]
//              (loads the collection once and answers newline-delimited
//               query batches over TCP until SIGINT/SIGTERM; see
//               DESIGN.md "Resident search service".  --port=0 picks a free
//               port, announced on stderr.  --metrics-port enables the
//               /metrics + /healthz + /debug/slow endpoint, refreshed at
//               batch boundaries.  --max-verify-worlds caps the
//               possible-world product a single exact verification may
//               cost; over-budget candidates fall back to their CDF bounds
//               and the response is marked "inexact".  --deadline-ms is the
//               per-query wall-clock deadline with the same fallback.
//               --max-batch-requests/--max-batch-bytes cap one batch; a
//               client that exceeds either gets a structured error and is
//               disconnected.  --query-log writes one JSONL record per
//               answered request.  --slow-trace-ms force-keeps the spans of
//               any query at or over the threshold regardless of
//               --trace-sample; alone it keeps only such slow queries.
//               --idle-timeout-ms closes a connection that sends nothing
//               for that long.)
//
// Flight recorder (DESIGN.md "Flight recorder and watchdog"):
//   --flight-record[=FILE]  installs a SIGSEGV/SIGABRT/SIGBUS handler that
//                       dumps the always-on flight recorder (what every
//                       thread was doing recently) to FILE — default
//                       ujoin.flight_record — and writes the same dump
//                       (reason "manual") at orderly exit.  The document is
//                       versioned ujoin.flight_record JSON; check it with
//                       tools/validate.py.
//   --watchdog-ms=N     starts a stall watchdog: a query/probe running past
//                       4x its own deadline (or past N ms when it has no
//                       deadline) is captured as a stall report — length
//                       band, funnel position, verify-world estimate,
//                       elapsed — and, with --flight-record, dumps the full
//                       flight record.  Under serve the reports are served
//                       at /debug/stalls on the metrics port.
//
// Observability (DESIGN.md "Observability" and "Live monitoring"):
//   --metrics-out=FILE  writes a ujoin.run_report JSON document with the
//                       effective options, the JoinStats, and the merged
//                       obs metric registry (counters/gauges/histograms).
//   --trace-out=FILE    writes per-stage spans as Chrome trace-event JSON;
//                       load it in chrome://tracing or https://ui.perfetto.dev.
//   --trace-sample=N    keeps the spans of 1-in-N probes/queries (driver
//                       spans are always kept).  The decision is a pure
//                       function of a fixed seed and the probe index, so
//                       sampled traces are reproducible and thread-count
//                       invariant; the rate is recorded in trace metadata.
//   --prom-out=FILE     writes the final metric state in Prometheus text
//                       format (atomically, for the node_exporter textfile
//                       collector).
//   --listen=PORT       serves /metrics (Prometheus text) and /healthz on
//                       127.0.0.1:PORT from a background thread; snapshots
//                       refresh at the join's progress points, so scrapes
//                       never touch live per-probe state.  PORT 0 picks a
//                       free port; the bound port is printed to stderr.
//   --listen-hold       after the run completes, keep serving until
//                       SIGINT/SIGTERM (for scrape-interval demos).
//   --progress          prints progress lines to stderr.

#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "join/explain.h"
#include "join/ujoin.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/report.h"
#include "obs/scrape_server.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/search_server.h"
#include "util/timer.h"

namespace {

using namespace ujoin;  // NOLINT: CLI driver

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        error_ = "unexpected argument '" + arg + "'";
        return;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") {
    seen_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) {
    const std::string v = GetString(key);
    return v.empty() ? fallback : std::atof(v.c_str());
  }
  int GetInt(const std::string& key, int fallback) {
    const std::string v = GetString(key);
    return v.empty() ? fallback : std::atoi(v.c_str());
  }
  bool GetBool(const std::string& key) { return GetString(key) == "true"; }

  // Call after all Get* calls: reports unknown flags.
  bool Validate() {
    if (!error_.empty()) {
      std::fprintf(stderr, "error: %s\n", error_.c_str());
      return false;
    }
    for (const auto& [key, value] : values_) {
      if (!seen_.count(key)) {
        std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> seen_;
  std::string error_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: ujoin_cli "
      "<generate|join|index|search|explain|serve|stats>"
      " [flags]\n"
      "see the header of tools/ujoin_cli.cc for flag reference\n");
  return 2;
}

// --- observability plumbing (--metrics-out / --trace-out / --progress /
// --prom-out / --listen / --trace-sample) ----------------------------------

// Fixed seed for --trace-sample: sampling decisions are a pure function of
// (seed, probe index), so the same command line always keeps the same probes.
constexpr uint64_t kTraceSampleSeed = 0x756a6f696e;  // "ujoin"

// Owns the sinks named by the observability flags for one command run.
struct ObsOutputs {
  std::string metrics_path;
  std::string trace_path;
  std::string prom_path;
  int listen_port = -1;  // -1 = no server; 0 = pick a free port
  bool listen_hold = false;
  bool progress = false;
  obs::Recorder recorder;
  obs::TraceRecorder tracer;
  obs::ScrapeServer server;

  // Whether any flag needs the metric recorder attached to the run.
  bool WantsRecorder() const {
    return !metrics_path.empty() || !prom_path.empty() || listen_port >= 0;
  }
};

// Reads the shared observability flags into `out` (ObsOutputs owns a
// ScrapeServer and is not movable); call before flags.Validate().
void ReadObsFlags(Flags& flags, bool with_progress, ObsOutputs* out) {
  out->metrics_path = flags.GetString("metrics-out");
  out->trace_path = flags.GetString("trace-out");
  out->prom_path = flags.GetString("prom-out");
  const std::string listen = flags.GetString("listen");
  if (!listen.empty()) {
    out->listen_port = listen == "true" ? 0 : std::atoi(listen.c_str());
  }
  out->listen_hold = flags.GetBool("listen-hold");
  const int sample = flags.GetInt("trace-sample", 1);
  if (sample > 1) out->tracer.SetProbeSampling(sample, kTraceSampleSeed);
  if (with_progress) out->progress = flags.GetBool("progress");
}

// Reads --slow-trace-ms into `tracer`: spans of a query at or over the
// threshold are force-kept regardless of the probe sampler.  Without an
// explicit --trace-sample the sampler is set to keep nothing, so the trace
// contains exactly the slow queries.
void ReadSlowTraceFlag(Flags& flags, obs::TraceRecorder* tracer) {
  const int slow_trace_ms = flags.GetInt("slow-trace-ms", 0);
  if (slow_trace_ms <= 0) return;
  tracer->SetSlowKeepNs(int64_t{slow_trace_ms} * 1000000);
  if (flags.GetString("trace-sample").empty()) {
    tracer->SetProbeSampling(0, kTraceSampleSeed);
  }
}

// --- flight recorder / watchdog plumbing (--flight-record / --watchdog-ms,
// shared by join, search, and serve; DESIGN.md "Flight recorder and
// watchdog") -----------------------------------------------------------------

// The flags as given: `record_path` is empty when --flight-record is absent,
// the default file name when given bare, else the explicit file.
struct FlightFlags {
  std::string record_path;
  int64_t watchdog_ms = 0;
};

void ReadFlightFlags(Flags& flags, FlightFlags* out) {
  const std::string record = flags.GetString("flight-record");
  if (!record.empty()) {
    out->record_path = record == "true" ? "ujoin.flight_record" : record;
  }
  out->watchdog_ms = flags.GetInt("watchdog-ms", 0);
}

// Installs the crash-dump handler and starts an in-process watchdog for the
// join/search commands (serve runs its own; see ServeOptions::watchdog_ms).
// 0 on success.
int StartFlight(const FlightFlags& ff,
                std::unique_ptr<obs::Watchdog>* watchdog) {
  if (!ff.record_path.empty() &&
      !obs::InstallCrashDump(ff.record_path.c_str())) {
    std::fprintf(stderr, "error: cannot open %s\n", ff.record_path.c_str());
    return 1;
  }
  if (watchdog != nullptr && ff.watchdog_ms > 0) {
    *watchdog = std::make_unique<obs::Watchdog>(obs::GlobalFlightRecorder());
    obs::WatchdogOptions wd;
    wd.stall_ns = ff.watchdog_ms * 1'000'000;
    wd.dump_path = ff.record_path;
    (*watchdog)->Start(wd);
  }
  return 0;
}

// Stops the watchdog (reporting captures) and writes the orderly end-of-run
// flight record; 0 on success.
int FinishFlight(const FlightFlags& ff,
                 std::unique_ptr<obs::Watchdog>* watchdog) {
  int rc = 0;
  if (watchdog != nullptr && *watchdog != nullptr) {
    (*watchdog)->Stop();
    std::fprintf(stderr, "watchdog: %lld stalls captured\n",
                 static_cast<long long>((*watchdog)->captures()));
    watchdog->reset();
  }
  if (!ff.record_path.empty()) {
    obs::FlightDumpOptions options;
    options.reason = "manual";
    if (obs::DumpFlightRecord(ff.record_path.c_str(), options)) {
      std::fprintf(stderr, "flight-record: wrote %s\n",
                   ff.record_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot open %s\n", ff.record_path.c_str());
      rc = 1;
    }
  }
  return rc;
}

// Opens the --query-log sink when the flag was given; 0 on success.  On
// success `*out` points at `log` (or stays null when the flag is absent).
int OpenQueryLog(const std::string& path, obs::QueryLog* log,
                 obs::QueryLog** out) {
  *out = nullptr;
  if (path.empty()) return 0;
  const Status status = log->Open(path);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  *out = log;
  return 0;
}

// Closes the --query-log sink and reports the record count; 0 on success.
int FinishQueryLog(const std::string& path, obs::QueryLog* log) {
  if (!log->is_open()) return 0;
  const int64_t written = log->records_written();
  const Status status = log->Close();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "query-log: wrote %lld records to %s\n",
               static_cast<long long>(written), path.c_str());
  return 0;
}

// Starts the scrape endpoint when --listen was given; 0 on success.  The
// initial snapshot is the (all-zero) recorder so /metrics is well-formed
// before the first progress point.
int StartObsServer(ObsOutputs& obs_out) {
  if (obs_out.listen_port < 0) return 0;
  obs_out.server.UpdateMetrics(obs::RenderPrometheusText(obs_out.recorder));
  const Status status = obs_out.server.Start(obs_out.listen_port);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "listen: serving /metrics on 127.0.0.1:%d\n",
               obs_out.server.port());
  return 0;
}

volatile std::sig_atomic_t g_hold_interrupted = 0;
void HoldSignalHandler(int /*sig*/) { g_hold_interrupted = 1; }

// Publishes the final snapshot; with --listen-hold, keeps serving until
// SIGINT/SIGTERM.  The ScrapeServer destructor stops the accept thread.
void FinishObsServer(ObsOutputs& obs_out) {
  if (obs_out.listen_port < 0) return;
  obs_out.server.UpdateMetrics(obs::RenderPrometheusText(obs_out.recorder));
  if (obs_out.listen_hold) {
    std::signal(SIGINT, &HoldSignalHandler);
    std::signal(SIGTERM, &HoldSignalHandler);
    std::fprintf(stderr, "listen: holding until SIGINT/SIGTERM\n");
    while (g_hold_interrupted == 0) pause();
  }
  obs_out.server.Stop();
}

struct ProgressState {
  uint64_t last_permille = ~uint64_t{0};
};

// Join progress hook state: optional stderr lines plus live /metrics
// refreshes.  Progress points are where the merged recorder is quiescent
// (only the driver thread folds into it), which is why the snapshot is
// rendered here, on the driver thread, and pushed to the serving thread as
// finished bytes.
struct JoinProgressState {
  ProgressState print_state;
  bool print = false;
  ObsOutputs* obs_out = nullptr;
};

// JoinOptions::progress_fn target: one stderr line per permille step.
void PrintProgress(const JoinProgress& progress, void* user) {
  auto* state = static_cast<ProgressState*>(user);
  const uint64_t permille =
      progress.total == 0 ? 1000 : progress.processed * 1000 / progress.total;
  if (state != nullptr) {
    if (permille == state->last_permille &&
        progress.processed != progress.total) {
      return;
    }
    state->last_permille = permille;
  }
  std::fprintf(stderr,
               "progress: %5.1f%%  %llu/%llu strings  %llu pairs  %.2fs\n",
               static_cast<double>(permille) / 10.0,
               static_cast<unsigned long long>(progress.processed),
               static_cast<unsigned long long>(progress.total),
               static_cast<unsigned long long>(progress.result_pairs),
               progress.elapsed_seconds);
}

// JoinOptions::progress_fn target when a live endpoint or --progress (or
// both) is active.
void OnJoinProgress(const JoinProgress& progress, void* user) {
  auto* state = static_cast<JoinProgressState*>(user);
  if (state->print) PrintProgress(progress, &state->print_state);
  if (state->obs_out->listen_port >= 0) {
    state->obs_out->server.UpdateMetrics(
        obs::RenderPrometheusText(state->obs_out->recorder));
  }
}

// The effective JoinOptions, serialized for the run report's "options"
// section (deterministic key order; see DESIGN.md "Observability").
std::string OptionsJson(const JoinOptions& options) {
  obs::JsonWriter w;
  w.BeginObject();
  AppendJoinOptionsFields(options, &w);
  w.Key("threads");
  w.Int(options.threads);
  w.EndObject();
  return w.TakeString();
}

// Writes the run report and/or trace named by the flags; 0 on success.
int WriteObsOutputs(ObsOutputs& obs_out, const std::string& command,
                    const JoinOptions& options, const JoinStats& stats) {
  if (!obs_out.metrics_path.empty()) {
    const Status status =
        obs::WriteRunReport(obs_out.metrics_path, command,
                            {{"options", OptionsJson(options)},
                             {"stats", stats.ToJson()},
                             {"metrics", obs_out.recorder.ToJson()}});
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics: wrote %s\n", obs_out.metrics_path.c_str());
  }
  if (!obs_out.trace_path.empty()) {
    const Status status = obs_out.tracer.WriteFile(obs_out.trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: wrote %zu spans to %s\n",
                 obs_out.tracer.num_events(), obs_out.trace_path.c_str());
  }
  if (!obs_out.prom_path.empty()) {
    const Status status =
        obs::WritePrometheusTextfile(obs_out.recorder, obs_out.prom_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "prom: wrote %s\n", obs_out.prom_path.c_str());
  }
  return 0;
}

Result<Alphabet> AlphabetFromKind(const std::string& kind) {
  if (kind == "names") return Alphabet::Names();
  if (kind == "protein") return Alphabet::Protein();
  if (kind == "dna") return Alphabet::Dna();
  return Status::InvalidArgument("unknown --kind '" + kind +
                                 "' (names|protein|dna)");
}

int RunGenerate(Flags& flags) {
  DatasetOptions opt;
  const std::string kind = flags.GetString("kind", "names");
  opt.kind = kind == "protein" ? DatasetOptions::Kind::kProtein
                               : DatasetOptions::Kind::kNames;
  opt.size = flags.GetInt("size", 1000);
  opt.theta = flags.GetDouble("theta", 0.2);
  opt.gamma = flags.GetInt("gamma", 5);
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  opt.max_uncertain_positions = flags.GetInt("max-uncertain", 0);
  const std::string out = flags.GetString("out");
  if (!flags.Validate()) return 2;
  if (kind != "names" && kind != "protein") {
    std::fprintf(stderr, "error: --kind must be names or protein\n");
    return 2;
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }
  const Dataset data = GenerateDataset(opt);
  const Status status = SaveDataset(data, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu strings to %s\n", data.strings.size(), out.c_str());
  return 0;
}

Result<std::vector<UncertainString>> LoadInput(Flags& flags,
                                               const Alphabet& alphabet) {
  const std::string input = flags.GetString("input");
  if (input.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  return LoadDataset(input, alphabet);
}

int RunJoin(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  JoinOptions options = JoinOptions::Qfct(flags.GetInt("k", 2),
                                          flags.GetDouble("tau", 0.1),
                                          flags.GetInt("q", 3));
  const std::string variant = flags.GetString("variant", "QFCT");
  if (variant == "QCT") {
    options.use_freq_filter = false;
  } else if (variant == "QFT") {
    options.use_cdf_filter = false;
  } else if (variant == "FCT") {
    options.use_qgram_filter = false;
  } else if (variant != "QFCT") {
    std::fprintf(stderr, "error: unknown --variant '%s'\n", variant.c_str());
    return 2;
  }
  options.always_verify = flags.GetBool("exact");
  options.threads = flags.GetInt("threads", 1);
  const std::string out_path = flags.GetString("out");
  ObsOutputs obs_out;
  ReadObsFlags(flags, /*with_progress=*/true, &obs_out);
  FlightFlags flight;
  ReadFlightFlags(flags, &flight);
  Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
  if (!flags.Validate()) return 2;
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  if (obs_out.WantsRecorder()) options.metrics = &obs_out.recorder;
  if (!obs_out.trace_path.empty()) options.trace = &obs_out.tracer;
  JoinProgressState progress_state;
  progress_state.print = obs_out.progress;
  progress_state.obs_out = &obs_out;
  if (obs_out.progress || obs_out.listen_port >= 0) {
    options.progress_fn = &OnJoinProgress;
    options.progress_user = &progress_state;
  }
  if (StartObsServer(obs_out) != 0) return 1;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (StartFlight(flight, &watchdog) != 0) return 1;
  Result<SelfJoinResult> result =
      SimilaritySelfJoin(*input, *alphabet, options);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot open %s\n", out_path.c_str());
      return 1;
    }
  }
  for (const JoinPair& pair : result->pairs) {
    std::fprintf(out, "%u\t%u\t%.6f%s\n", pair.lhs, pair.rhs,
                 pair.probability, pair.exact ? "" : "\t(lower bound)");
  }
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr, "%zu pairs\n%s\n", result->pairs.size(),
               result->stats.ToString().c_str());
  int rc = WriteObsOutputs(obs_out, "join", options, result->stats);
  if (FinishFlight(flight, &watchdog) != 0) rc = 1;
  FinishObsServer(obs_out);
  return rc;
}

int RunIndex(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  JoinOptions options = JoinOptions::Qfct(flags.GetInt("k", 2),
                                          flags.GetDouble("tau", 0.1),
                                          flags.GetInt("q", 3));
  options.always_verify = true;
  const std::string out = flags.GetString("out");
  Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
  if (!flags.Validate()) return 2;
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: --out is required\n");
    return 2;
  }
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(std::move(*input), *alphabet, options);
  if (!searcher.ok()) {
    std::fprintf(stderr, "error: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  const Status status = searcher->Save(out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu strings (%.2f MiB of inverted lists) -> %s\n",
              searcher->collection().size(),
              static_cast<double>(searcher->IndexMemoryUsage()) /
                  (1024.0 * 1024.0),
              out.c_str());
  return 0;
}

int RunSearch(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  JoinOptions options = JoinOptions::Qfct(flags.GetInt("k", 2),
                                          flags.GetDouble("tau", 0.1),
                                          flags.GetInt("q", 3));
  options.always_verify = true;
  const std::string query_text = flags.GetString("query");
  const std::string queries_path = flags.GetString("queries");
  const std::string index_path = flags.GetString("index");
  const int topk = flags.GetInt("topk", 0);
  const int threads = flags.GetInt("threads", 1);
  ObsOutputs obs_out;
  ReadObsFlags(flags, /*with_progress=*/false, &obs_out);
  ReadSlowTraceFlag(flags, &obs_out.tracer);
  FlightFlags flight;
  ReadFlightFlags(flags, &flight);
  const std::string query_log_path = flags.GetString("query-log");
  obs::Recorder* const metrics =
      obs_out.WantsRecorder() ? &obs_out.recorder : nullptr;
  obs::TraceRecorder* const trace =
      obs_out.trace_path.empty() ? nullptr : &obs_out.tracer;

  // The index build is timed around Create; a loaded --index builds nothing.
  double index_build_time = 0.0;
  Result<SimilaritySearcher> searcher = [&]() -> Result<SimilaritySearcher> {
    if (!index_path.empty()) {
      flags.GetString("input");  // accepted but ignored with --index
      return SimilaritySearcher::Load(index_path, *alphabet);
    }
    Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
    if (!input.ok()) return input.status();
    ScopedTimer build_timer(&index_build_time);
    return SimilaritySearcher::Create(std::move(*input), *alphabet, options);
  }();
  if (!flags.Validate()) return 2;
  if (!searcher.ok()) {
    std::fprintf(stderr, "error: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  // The search drivers report per-query work only; the index figures of the
  // printed stats and the run report come from the searcher itself.
  const auto add_index_stats = [&](JoinStats* stats) {
    stats->index_build_time = index_build_time;
    stats->peak_index_memory = searcher->IndexMemoryUsage();
  };
  obs::QueryLog query_log;
  obs::QueryLog* query_log_ptr = nullptr;
  if (OpenQueryLog(query_log_path, &query_log, &query_log_ptr) != 0) return 1;
  if (StartObsServer(obs_out) != 0) return 1;
  std::unique_ptr<obs::Watchdog> watchdog;
  if (StartFlight(flight, &watchdog) != 0) return 1;
  if (!queries_path.empty()) {
    // Batch mode: run the whole query file through SearchMany and report
    // the aggregated statistics (folded in query order, so the numbers are
    // identical for every --threads value).
    Result<std::vector<UncertainString>> queries =
        LoadDataset(queries_path, *alphabet);
    if (!queries.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   queries.status().ToString().c_str());
      return 1;
    }
    JoinStats stats;
    Result<std::vector<std::vector<SearchHit>>> hits =
        searcher->SearchMany(*queries, threads, &stats, metrics, trace,
                             /*limits=*/nullptr, query_log_ptr);
    if (!hits.ok()) {
      std::fprintf(stderr, "error: %s\n", hits.status().ToString().c_str());
      return 1;
    }
    add_index_stats(&stats);
    size_t total_hits = 0;
    for (size_t q = 0; q < hits->size(); ++q) {
      for (const SearchHit& hit : (*hits)[q]) {
        std::printf("%zu\t%u\t%.6f\n", q, hit.id, hit.probability);
        ++total_hits;
      }
    }
    std::fprintf(stderr, "%zu queries, %zu hits\n%s\n", queries->size(),
                 total_hits, stats.ToString().c_str());
    int rc = WriteObsOutputs(obs_out, "search", options, stats);
    if (FinishQueryLog(query_log_path, &query_log) != 0) rc = 1;
    if (FinishFlight(flight, &watchdog) != 0) rc = 1;
    FinishObsServer(obs_out);
    return rc;
  }
  if (query_text.empty()) {
    std::fprintf(stderr, "error: --query or --queries is required\n");
    return 2;
  }
  Result<UncertainString> query =
      UncertainString::Parse(query_text, *alphabet);
  if (!query.ok()) {
    std::fprintf(stderr, "error: bad query: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  JoinStats stats;
  // Per-query span buffer, appended to the tracer after the call (the
  // same collect-then-fold pattern the batch drivers use).  With a
  // slow-keep threshold the spans must be collected speculatively: the
  // keep decision needs the query's wall time.
  obs::SpanCollector spans;
  obs::SpanCollector* span_sink = nullptr;
  if (trace != nullptr &&
      (trace->SampleProbe(0) || trace->slow_keep_ns() > 0)) {
    spans = obs::SpanCollector(trace, /*tid=*/1);
    span_sink = &spans;
  }
  // SearchTopK has no metric hooks: a --topk report carries stats only.
  Result<std::vector<SearchHit>> hits =
      topk > 0 ? searcher->SearchTopK(*query, topk, &stats)
               : searcher->Search(*query, &stats, /*workspace=*/nullptr,
                                  metrics, span_sink);
  if (!hits.ok()) {
    std::fprintf(stderr, "error: %s\n", hits.status().ToString().c_str());
    return 1;
  }
  const int64_t query_ns = static_cast<int64_t>(stats.total_time * 1e9);
  if (trace != nullptr) {
    const bool keep =
        spans.enabled() && trace->KeepProbe(trace->SampleProbe(0), query_ns);
    trace->NoteProbe(keep);
    if (keep) trace->Append(spans.events());
  }
  if (query_log_ptr != nullptr) {
    query_log_ptr->Write(MakeQueryLogRecord(
        stats, /*connection=*/0, /*seq=*/1, query->length(),
        static_cast<int64_t>(hits->size()), /*error=*/false));
  }
  for (const SearchHit& hit : *hits) {
    std::printf("%u\t%.6f\t%s\n", hit.id, hit.probability,
                searcher->collection()[hit.id].ToString().c_str());
  }
  std::fprintf(stderr, "%zu hits\n", hits->size());
  add_index_stats(&stats);
  int rc = WriteObsOutputs(obs_out, "search", options, stats);
  if (FinishQueryLog(query_log_path, &query_log) != 0) rc = 1;
  if (FinishFlight(flight, &watchdog) != 0) rc = 1;
  FinishObsServer(obs_out);
  return rc;
}

int RunExplain(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  JoinOptions options = JoinOptions::Qfct(flags.GetInt("k", 2),
                                          flags.GetDouble("tau", 0.1),
                                          flags.GetInt("q", 3));
  options.always_verify = true;
  const std::string query_text = flags.GetString("query");
  const std::string index_path = flags.GetString("index");
  const std::string out_path = flags.GetString("out");
  const bool no_timing = flags.GetBool("no-timing");
  SearchLimits limits;
  limits.max_verify_worlds = flags.GetInt("max-verify-worlds", 0);
  limits.deadline_ns = int64_t{flags.GetInt("deadline-ms", 0)} * 1000000;

  Result<SimilaritySearcher> searcher = [&]() -> Result<SimilaritySearcher> {
    if (!index_path.empty()) {
      flags.GetString("input");  // accepted but ignored with --index
      return SimilaritySearcher::Load(index_path, *alphabet);
    }
    Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
    if (!input.ok()) return input.status();
    return SimilaritySearcher::Create(std::move(*input), *alphabet, options);
  }();
  if (!flags.Validate()) return 2;
  if (!searcher.ok()) {
    std::fprintf(stderr, "error: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  if (query_text.empty()) {
    std::fprintf(stderr, "error: --query is required\n");
    return 2;
  }
  Result<UncertainString> query =
      UncertainString::Parse(query_text, searcher->alphabet());
  if (!query.ok()) {
    std::fprintf(stderr, "error: bad query: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  Result<ExplainResult> result = searcher->Explain(*query, &limits);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const std::string json = RenderExplainJson(*searcher, *query, *result,
                                             limits, !no_timing);
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "explain: wrote %s\n", out_path.c_str());
  }
  std::fputs(RenderExplainNarrative(*searcher, *query, *result).c_str(),
             stderr);
  return 0;
}

int RunServe(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  JoinOptions options = JoinOptions::Qfct(flags.GetInt("k", 2),
                                          flags.GetDouble("tau", 0.1),
                                          flags.GetInt("q", 3));
  options.always_verify = true;
  const std::string index_path = flags.GetString("index");
  serve::ServeOptions serve_options;
  serve_options.port = flags.GetInt("port", 0);
  serve_options.metrics_port = flags.GetInt("metrics-port", -1);
  serve_options.max_connections = flags.GetInt("max-connections", 4);
  serve_options.limits.max_verify_worlds =
      flags.GetInt("max-verify-worlds", 0);
  serve_options.limits.deadline_ns =
      int64_t{flags.GetInt("deadline-ms", 0)} * 1000000;
  serve_options.max_request_bytes = static_cast<size_t>(
      flags.GetInt("max-request-bytes", 1 << 16));
  serve_options.max_batch_requests =
      int64_t{flags.GetInt("max-batch-requests", 1024)};
  serve_options.max_batch_bytes =
      int64_t{flags.GetInt("max-batch-bytes", 1 << 20)};
  serve_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 0);
  FlightFlags flight;
  ReadFlightFlags(flags, &flight);
  serve_options.watchdog_ms = flight.watchdog_ms;
  serve_options.watchdog_dump_path = flight.record_path;
  const std::string query_log_path = flags.GetString("query-log");
  const std::string trace_path = flags.GetString("trace-out");
  obs::QueryLog query_log;
  obs::TraceRecorder tracer;
  const int trace_sample = flags.GetInt("trace-sample", 1);
  if (trace_sample > 1) tracer.SetProbeSampling(trace_sample, kTraceSampleSeed);
  ReadSlowTraceFlag(flags, &tracer);
  if (!trace_path.empty()) serve_options.trace = &tracer;

  Result<SimilaritySearcher> searcher = [&]() -> Result<SimilaritySearcher> {
    if (!index_path.empty()) {
      flags.GetString("input");  // accepted but ignored with --index
      return SimilaritySearcher::Load(index_path, *alphabet);
    }
    Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
    if (!input.ok()) return input.status();
    return SimilaritySearcher::Create(std::move(*input), *alphabet, options);
  }();
  if (!flags.Validate()) return 2;
  if (serve_options.max_connections <= 0) {
    std::fprintf(stderr, "error: --max-connections must be positive\n");
    return 2;
  }
  if (!searcher.ok()) {
    std::fprintf(stderr, "error: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  if (OpenQueryLog(query_log_path, &query_log, &serve_options.query_log) !=
      0) {
    return 1;
  }
  // Serve runs its own watchdog (inside SearchServer, so captures reach
  // /debug/stalls and the serve recorder); here only the crash handler.
  if (StartFlight(flight, /*watchdog=*/nullptr) != 0) return 1;

  serve::SearchServer server(&*searcher, serve_options);
  const Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serve: %zu strings indexed, answering on 127.0.0.1:%d "
               "(%d connections max)\n",
               searcher->collection().size(), server.port(),
               serve_options.max_connections);
  if (server.metrics_port() >= 0) {
    std::fprintf(stderr, "serve: /metrics on 127.0.0.1:%d\n",
                 server.metrics_port());
  }
  if (serve_options.watchdog_ms > 0) {
    std::fprintf(stderr, "serve: watchdog at %lld ms (/debug/stalls)\n",
                 static_cast<long long>(serve_options.watchdog_ms));
  }
  std::signal(SIGINT, &HoldSignalHandler);
  std::signal(SIGTERM, &HoldSignalHandler);
  while (g_hold_interrupted == 0) pause();
  std::fprintf(stderr, "serve: shutting down\n");
  server.Stop();
  if (serve_options.watchdog_ms > 0) {
    std::fprintf(stderr, "watchdog: %lld stalls captured\n",
                 static_cast<long long>(server.WatchdogCaptures()));
  }
  const JoinStats stats = server.Stats();
  const obs::Recorder serve_metrics = server.ServeMetrics();
  std::fprintf(
      stderr,
      "serve: %lld connections (%lld rejected), %lld requests "
      "(%lld errors), %lld batches\n%s\n",
      static_cast<long long>(
          serve_metrics.counter(obs::Counter::kServeConnections)),
      static_cast<long long>(
          serve_metrics.counter(obs::Counter::kServeRejectedConnections)),
      static_cast<long long>(
          serve_metrics.counter(obs::Counter::kServeRequests)),
      static_cast<long long>(
          serve_metrics.counter(obs::Counter::kServeRequestErrors)),
      static_cast<long long>(
          serve_metrics.counter(obs::Counter::kServeBatches)),
      stats.ToString().c_str());
  int rc = 0;
  if (FinishFlight(flight, /*watchdog=*/nullptr) != 0) rc = 1;
  if (FinishQueryLog(query_log_path, &query_log) != 0) rc = 1;
  if (!trace_path.empty()) {
    const Status trace_status = tracer.WriteFile(trace_path);
    if (!trace_status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   trace_status.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "trace: wrote %zu spans to %s\n",
                   tracer.num_events(), trace_path.c_str());
    }
  }
  return rc;
}

int RunStats(Flags& flags) {
  Result<Alphabet> alphabet =
      AlphabetFromKind(flags.GetString("kind", "names"));
  if (!alphabet.ok()) {
    std::fprintf(stderr, "error: %s\n", alphabet.status().ToString().c_str());
    return 2;
  }
  Result<std::vector<UncertainString>> input = LoadInput(flags, *alphabet);
  if (!flags.Validate()) return 2;
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  int64_t total_len = 0, uncertain = 0, alternatives = 0;
  int min_len = INT32_MAX, max_len = 0;
  for (const UncertainString& s : *input) {
    total_len += s.length();
    min_len = std::min(min_len, s.length());
    max_len = std::max(max_len, s.length());
    for (int i = 0; i < s.length(); ++i) {
      if (!s.IsCertain(i)) {
        ++uncertain;
        alternatives += s.NumAlternatives(i);
      }
    }
  }
  const double n = static_cast<double>(input->size());
  std::printf("strings:            %zu\n", input->size());
  std::printf("length:             min %d, avg %.1f, max %d\n", min_len,
              static_cast<double>(total_len) / n, max_len);
  std::printf("theta (uncertain):  %.3f\n",
              static_cast<double>(uncertain) / static_cast<double>(total_len));
  std::printf("gamma (mean alts):  %.2f\n",
              uncertain > 0 ? static_cast<double>(alternatives) /
                                  static_cast<double>(uncertain)
                            : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags(argc, argv);
  const std::string command = argv[1];
  if (command == "generate") return RunGenerate(flags);
  if (command == "join") return RunJoin(flags);
  if (command == "index") return RunIndex(flags);
  if (command == "search") return RunSearch(flags);
  if (command == "explain") return RunExplain(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "stats") return RunStats(flags);
  return Usage();
}
