#include "join/self_join.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <thread>

#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/pair_verifier.h"
#include "join/probe_cascade.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace ujoin {

namespace {

Status ValidateCollection(const std::vector<UncertainString>& collection,
                          const Alphabet& alphabet) {
  // ujoin-effect: declares(alloc) -- error messages concatenate
  // std::to_string; validation runs once per join, before the waves.
  for (size_t i = 0; i < collection.size(); ++i) {
    const UncertainString& s = collection[i];
    if (s.empty()) {
      return Status::InvalidArgument("string " + std::to_string(i) +
                                     " is empty");
    }
    for (int pos = 0; pos < s.length(); ++pos) {
      for (const CharProb& cp : s.AlternativesAt(pos)) {
        if (!alphabet.Contains(cp.symbol)) {
          return Status::InvalidArgument(
              std::string("string ") + std::to_string(i) + " uses symbol '" +
              cp.symbol + "' outside the alphabet");
        }
      }
    }
  }
  return Status::OK();
}

// Visiting order: ascending length, ties by original index.  Each string
// only pairs with strings of smaller visiting position, so each unordered
// pair is examined exactly once.
std::vector<uint32_t> LengthSortedOrder(
    const std::vector<UncertainString>& collection) {
  // ujoin-effect: declares(alloc) -- the visiting order is materialized once
  // per join run, before the steady-state wave loop.
  std::vector<uint32_t> order(collection.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return collection[a].length() < collection[b].length();
  });
  return order;
}

void EmitPair(uint32_t a, uint32_t b, double probability, bool exact,
              std::vector<JoinPair>* pairs) {
  if (a > b) std::swap(a, b);
  pairs->push_back(JoinPair{a, b, probability, exact});
}

int ResolveThreads(int requested, size_t work_items) {
  int threads = requested;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  return std::min(threads,
                  static_cast<int>(std::max<size_t>(work_items, 1)));
}

// Runs fn(worker, rank) for every rank in [0, count).  Ranks are handed out
// through an atomic counter, so the assignment of ranks to threads is
// arbitrary — correctness requires fn to touch only rank-private state plus
// worker-private scratch (each pool thread has a fixed worker id, so
// worker-indexed buffers like QueryWorkspaces are never shared).
template <typename Fn>
void RunWaveTasks(int threads, uint32_t count, const Fn& fn) {
  if (count == 0) return;
  const int workers = std::min(threads, static_cast<int>(count));
  if (workers <= 1) {
    for (uint32_t rank = 0; rank < count; ++rank) fn(0, rank);
    return;
  }
  std::atomic<uint32_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&, t]() {
      for (;;) {
        const uint32_t rank = next.fetch_add(1);
        if (rank >= count) return;
        fn(t, rank);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
}

// Result of one probe task: rank-private, merged in (wave, rank) order so
// the join output and counters are identical for every thread count.
struct ProbeOutcome {
  Status status = Status::OK();
  std::vector<SearchHit> hits;  // candidate ids are visiting positions
  JoinStats stats;
  int worker = 0;             // pool worker that ran this rank
  int64_t probe_ns = 0;       // wall time of this rank's probe
  obs::SpanCollector spans;   // rank-private trace spans (empty when off)
};

}  // namespace

// Wave-parallel driver.  The length-sorted scan is cut into waves; each wave
// is first inserted into the inverted index sequentially, then every string
// of the wave probes the index concurrently while it stays unchanged (it is
// never frozen; probes read the delta lists).  A probe at position
// i passes id_limit = i to the index so it only sees strings of smaller
// position — exactly the prefix the paper's insert-after-every-string scan
// would have indexed — which keeps results, filter decisions, and pair-flow
// counters identical to the sequential semantics for every wave size and
// thread count (see DESIGN.md, "Parallel self-join").
Result<SelfJoinResult> SimilaritySelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options) {
  UJOIN_CHECK(options.k >= 0 && options.q >= 1);
  UJOIN_CHECK(options.tau >= 0.0 && options.tau <= 1.0);
  UJOIN_RETURN_IF_ERROR(ValidateCollection(collection, alphabet));

  SelfJoinResult result;
  JoinStats& stats = result.stats;
  Timer total_timer;

  const std::vector<uint32_t> order = LengthSortedOrder(collection);
  const uint32_t n = static_cast<uint32_t>(order.size());
  std::vector<int> lengths(n);  // ascending; visiting position -> length
  for (uint32_t i = 0; i < n; ++i) {
    lengths[i] = collection[order[i]].length();
  }

  const int threads = ResolveThreads(options.threads, n);
  const uint32_t wave_size =
      options.wave_size > 0
          ? static_cast<uint32_t>(options.wave_size)
          : static_cast<uint32_t>(std::max(64, 8 * threads));

  InvertedSegmentIndex index(options.k, options.q, options.probe);
  std::vector<FrequencySummary> freq_summaries(
      options.use_freq_filter ? n : 0);
  // One query workspace per pool worker, reused across waves: once warm,
  // the whole candidate-generation stage runs without heap allocation.
  std::vector<QueryWorkspace> workspaces(
      static_cast<size_t>(std::max(threads, 1)));

  // The q-gram stage prunes with Theorem 2's bound only when probabilistic
  // pruning is on; otherwise only the exact support condition applies.
  const double qgram_tau =
      options.qgram_probabilistic_pruning ? options.tau : 0.0;

  // Observability sinks (both null unless the caller opted in).  Each rank
  // records into its own Recorder / SpanCollector; the driver folds them in
  // (wave, rank) order below, mirroring JoinStats::Merge, so merged metric
  // counters and work-derived histograms are identical for every thread
  // count (timing-valued histograms vary run to run by nature).
  obs::Recorder* const run_metrics = options.metrics;
  obs::TraceRecorder* const trace = options.trace;
  std::vector<obs::Recorder> rank_metrics;
  std::vector<int64_t> worker_ns;  // per-worker probe time of one wave

  for (uint32_t wave_start = 0; wave_start < n; wave_start += wave_size) {
    const uint32_t wave_end = static_cast<uint32_t>(
        std::min<uint64_t>(n, static_cast<uint64_t>(wave_start) + wave_size));
    const uint32_t wave_count = wave_end - wave_start;
    const int64_t wave_index =
        static_cast<int64_t>(wave_start / std::max<uint32_t>(wave_size, 1));
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kWaveStart, wave_index,
                           wave_count);

    // ---- phase 1 (sequential): make the wave visible to its own probes ---
    // After this the index stays unchanged until the next wave (it is never
    // Freeze()d: probes read the delta lists); the concurrent probe phases
    // below only use its const query path.
    if (options.use_qgram_filter) {
      const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
      ScopedTimer timer(&stats.index_build_time);
      for (uint32_t i = wave_start; i < wave_end; ++i) {
        UJOIN_RETURN_IF_ERROR(index.Insert(i, collection[order[i]]));
      }
      timer.StopAndGet();
      if (trace != nullptr) {
        trace->AddSpan("index_insert", span_start, trace->NowNs() - span_start,
                       /*tid=*/0);
      }
    }
    stats.peak_index_memory =
        std::max(stats.peak_index_memory, index.MemoryUsage());

    std::vector<ProbeOutcome> outcomes(wave_count);
    if (run_metrics != nullptr) {
      rank_metrics.assign(wave_count, obs::Recorder());
    }

    // ---- phase 2 (parallel): frequency summaries for the wave -----------
    // Probes read summaries of every smaller position, including same-wave
    // ones, so the whole wave's summaries must exist before phase 3.
    if (options.use_freq_filter) {
      const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
      RunWaveTasks(threads, wave_count, [&](int /*worker*/, uint32_t rank) {
        ScopedTimer timer(&outcomes[rank].stats.freq_time);
        FrequencySummary::BuildInto(collection[order[wave_start + rank]],
                                    alphabet,
                                    &freq_summaries[wave_start + rank]);
      });
      if (trace != nullptr) {
        trace->AddSpan("freq_summaries", span_start,
                       trace->NowNs() - span_start, /*tid=*/0);
      }
    }

    // ---- phase 3 (parallel): probe the unchanging index ------------------
    const int64_t probe_phase_start = trace != nullptr ? trace->NowNs() : 0;
    RunWaveTasks(threads, wave_count, [&](int worker, uint32_t rank) {
      QueryWorkspace& workspace = workspaces[static_cast<size_t>(worker)];
      const uint32_t i = wave_start + rank;
      UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kProbeBegin, worker, i);
      const UncertainString& r = collection[order[i]];
      const int len = lengths[i];
      ProbeOutcome& outcome = outcomes[rank];
      outcome.worker = worker;
      JoinStats& pstats = outcome.stats;

      // Rank-private observability state: the index probe records into
      // `rec` via the workspace hook; spans buffer locally and are folded
      // by the driver in (wave, rank) order.
      obs::Recorder* const rec =
          run_metrics != nullptr ? &rank_metrics[rank] : nullptr;
      workspace.obs = rec;
      // Probe-span sampling: the keep/drop decision is a pure function of
      // (sampling seed, global probe index), so sampled traces are identical
      // for every thread count.  Driver/wave spans are never sampled out.
      if (trace != nullptr &&
          trace->SampleProbe(static_cast<int64_t>(wave_start) + rank)) {
        outcome.spans =
            obs::SpanCollector(trace, static_cast<uint32_t>(worker) + 1);
      }
      obs::SpanCollector& spans = outcome.spans;
      Timer probe_timer;
      const int64_t probe_span_start = spans.NowNs();
      internal::StageNanos ns;

      // ---- candidate generation ----------------------------------------
      // Strings of smaller visiting position with length in [len - k, len]
      // (smaller positions are never longer).
      const auto window_begin =
          std::lower_bound(lengths.begin(), lengths.begin() + i,
                           len - options.k);
      pstats.length_compatible_pairs += (lengths.begin() + i) - window_begin;

      std::vector<uint32_t>& candidates = workspace.candidate_ids;
      candidates.clear();
      if (options.use_qgram_filter) {
        const int64_t span_start = spans.NowNs();
        ScopedNanoTimer timer(&ns.qgram);
        for (int l = std::max(1, len - options.k); l <= len; ++l) {
          const std::span<const IndexCandidate> found = index.Query(
              r, l, qgram_tau, &workspace, &pstats.index_stats,
              /*id_limit=*/i);
          for (const IndexCandidate& c : found) candidates.push_back(c.id);
        }
        timer.StopAndGet();
        spans.Span("qgram_probe", span_start, spans.NowNs() - span_start);
      } else {
        const uint32_t first =
            static_cast<uint32_t>(window_begin - lengths.begin());
        for (uint32_t j = first; j < i; ++j) candidates.push_back(j);
      }
      pstats.qgram_candidates += static_cast<int64_t>(candidates.size());
      workspace.obs = nullptr;

      // ---- the filter-and-verify cascade, shared with the searcher ------
      outcome.status = internal::RunCascade(
          internal::ProbeCascade{
              .r = r,
              .r_summary =
                  options.use_freq_filter ? &freq_summaries[i] : nullptr,
              .options = options,
              .strings = collection,
              .ids = order,
              .summaries = freq_summaries},
          candidates, ns, &pstats, rec, &spans, &outcome.hits);
      outcome.probe_ns = probe_timer.ElapsedNanos();
      UJOIN_OBS_HIST(rec, obs::Hist::kProbeLatencyNs, outcome.probe_ns);
      spans.Span("probe", probe_span_start, spans.NowNs() - probe_span_start);
    });

    if (trace != nullptr) {
      trace->AddSpan("wave_probe", probe_phase_start,
                     trace->NowNs() - probe_phase_start, /*tid=*/0);
    }

    // ---- phase 4 (sequential): merge in rank order -----------------------
    const int64_t merge_span_start = trace != nullptr ? trace->NowNs() : 0;
    for (uint32_t rank = 0; rank < wave_count; ++rank) {
      ProbeOutcome& outcome = outcomes[rank];
      if (!outcome.status.ok()) return outcome.status;
      stats.Merge(outcome.stats);
      for (const SearchHit& hit : outcome.hits) {
        EmitPair(order[wave_start + rank], order[hit.id], hit.probability,
                 hit.exact, &result.pairs);
      }
      if (run_metrics != nullptr) run_metrics->Merge(rank_metrics[rank]);
      if (trace != nullptr) {
        trace->NoteProbe(outcome.spans.enabled());
        trace->Append(outcome.spans.events());
      }
    }
    if (trace != nullptr) {
      trace->AddSpan("wave_merge", merge_span_start,
                     trace->NowNs() - merge_span_start, /*tid=*/0);
    }

    // Wave-level metrics, recorded by the driver after the fold.
    UJOIN_OBS_COUNTER(run_metrics, obs::Counter::kWaves, 1);
    UJOIN_OBS_COUNTER(run_metrics, obs::Counter::kProbes, wave_count);
    if (UJOIN_OBS_ENABLED(run_metrics)) {
      // Imbalance is between workers, not probes: a worker's load is the
      // sum of the probe times of the ranks it ran, over the wave's
      // min(threads, wave size) workers (one worker is balanced by
      // definition).
      const int workers = std::min(threads, static_cast<int>(wave_count));
      worker_ns.assign(static_cast<size_t>(workers), 0);
      for (const ProbeOutcome& outcome : outcomes) {
        worker_ns[static_cast<size_t>(outcome.worker)] += outcome.probe_ns;
      }
      const int64_t max_ns =
          *std::max_element(worker_ns.begin(), worker_ns.end());
      const int64_t sum_ns =
          std::accumulate(worker_ns.begin(), worker_ns.end(), int64_t{0});
      if (sum_ns > 0) {
        const double mean_ns =
            static_cast<double>(sum_ns) / static_cast<double>(workers);
        UJOIN_OBS_HIST(
            run_metrics, obs::Hist::kWaveImbalancePermille,
            static_cast<int64_t>(1000.0 * static_cast<double>(max_ns) /
                                     mean_ns +
                                 0.5));
      }
    }

    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kWaveEnd, wave_index, 0);
    if (options.progress_fn != nullptr) {
      options.progress_fn(
          JoinProgress{wave_end, n, result.pairs.size(),
                       total_timer.ElapsedSeconds()},
          options.progress_user);
    }
  }

  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kThreads, threads);
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kWaveSize,
                  static_cast<int64_t>(wave_size));
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kPeakIndexMemoryBytes,
                  static_cast<int64_t>(stats.peak_index_memory));
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kCollectionSize,
                  static_cast<int64_t>(n));

  std::sort(result.pairs.begin(), result.pairs.end());
  stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

Result<SelfJoinResult> ExhaustiveSelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options) {
  UJOIN_RETURN_IF_ERROR(ValidateCollection(collection, alphabet));
  SelfJoinResult result;
  Timer total_timer;
  const std::vector<uint32_t> order = LengthSortedOrder(collection);
  std::vector<int> visited_lengths;
  visited_lengths.reserve(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    const UncertainString& r = collection[order[i]];
    const auto window_begin =
        std::lower_bound(visited_lengths.begin(), visited_lengths.end(),
                         r.length() - options.k);
    const uint32_t first =
        static_cast<uint32_t>(window_begin - visited_lengths.begin());
    internal::PairVerifier verifier(r, options);
    for (uint32_t j = first; j < i; ++j) {
      ++result.stats.length_compatible_pairs;
      ++result.stats.verified_pairs;
      Result<double> prob =
          verifier.Probability(collection[order[j]], &result.stats.verify_stats);
      if (!prob.ok()) return prob.status();
      if (prob.value() > options.tau) {
        ++result.stats.result_pairs;
        EmitPair(order[i], order[j], prob.value(), /*exact=*/true,
                 &result.pairs);
      }
    }
    visited_lengths.push_back(r.length());
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  result.stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace ujoin
