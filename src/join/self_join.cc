#include "join/self_join.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/ordered_pool.h"
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
  // std::to_string; validation runs once per join, before the pass.
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
  // per join run, before the first probe.
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

// Progress is reported from the fold after every kProgressGrain positions
// and at the end.
constexpr uint32_t kProgressGrain = 64;

}  // namespace

// One length-gated pass: the calling thread indexes the strings in visiting
// order and releases each length group's probes to the ordered pool once
// the group is in.  A probe at position i of length L reads only buckets
// L-k..L and summaries up to i, with id_limit = i, while the caller writes
// only a longer group's (see DESIGN.md, "Parallel self-join").
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

  const int threads = internal::OrderedPool::Threads(options.threads, n);

  // Every bucket exists before the first probe is released, so inserts
  // never change the bucket map's shape while probes look buckets up.
  InvertedSegmentIndex index(options.k, options.q, options.probe);
  if (options.use_qgram_filter) {
    for (uint32_t i = 0; i < n; ++i) index.AddBucket(lengths[i]);
  }
  std::vector<FrequencySummary> freq_summaries(
      options.use_freq_filter ? n : 0);
  // One query workspace per worker: once warm, the whole
  // candidate-generation stage runs without heap allocation.
  std::vector<QueryWorkspace> workspaces(static_cast<size_t>(threads));

  // The q-gram stage prunes with Theorem 2's bound only when probabilistic
  // pruning is on; otherwise only the exact support condition applies.
  const double qgram_tau =
      options.qgram_probabilistic_pruning ? options.tau : 0.0;

  // Observability sinks (null unless the caller opted in): each probe
  // records into its outcome, and the fold merges outcomes in position
  // order, so merged metrics are identical for every thread count.
  obs::Recorder* const run_metrics = options.metrics;
  obs::TraceRecorder* const trace = options.trace;

  const auto run = [&](int worker, uint32_t i,
                       internal::ProbeOutcome* outcome) {
    QueryWorkspace& workspace = workspaces[static_cast<size_t>(worker)];
    const UncertainString& r = collection[order[i]];
    const int len = lengths[i];
    // Each probe is one in-flight epoch for the watchdog, as a search is.
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kQueryBegin, /*deadline_ns=*/0,
                           obs::Histogram::BucketIndex(len));
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kProbeBegin, worker, i);
    JoinStats& pstats = outcome->stats;
    obs::Recorder* const rec =
        run_metrics != nullptr ? &outcome->metrics : nullptr;
    workspace.obs = rec;
    // Probe-span sampling: the keep/drop decision is a pure function of
    // (sampling seed, position), so sampled traces are identical for every
    // thread count.  Driver spans are never sampled out.
    if (trace != nullptr && trace->SampleProbe(static_cast<int64_t>(i))) {
      outcome->spans =
          obs::SpanCollector(trace, static_cast<uint32_t>(worker) + 1);
    }
    obs::SpanCollector& spans = outcome->spans;
    Timer probe_timer;
    const int64_t probe_span_start = spans.NowNs();
    internal::StageNanos ns;

    // ---- candidate generation ------------------------------------------
    // Strings of smaller visiting position with length in [len - k, len]
    // (smaller positions are never longer).
    const auto window_begin = std::lower_bound(
        lengths.begin(), lengths.begin() + i, len - options.k);
    pstats.length_compatible_pairs += (lengths.begin() + i) - window_begin;

    std::vector<uint32_t>& candidates = workspace.candidate_ids;
    candidates.clear();
    if (options.use_qgram_filter) {
      const int64_t span_start = spans.NowNs();
      ScopedNanoTimer timer(&ns.qgram);
      for (int l = std::max(1, len - options.k); l <= len; ++l) {
        const std::span<const IndexCandidate> found =
            index.Query(r, l, qgram_tau, &workspace, &pstats.index_stats,
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

    // ---- the filter-and-verify cascade, shared with the searcher --------
    outcome->status = internal::RunCascade(
        internal::ProbeCascade{
            .r = r,
            .r_summary =
                options.use_freq_filter ? &freq_summaries[i] : nullptr,
            .options = options,
            .strings = collection,
            .ids = order,
            .summaries = freq_summaries},
        candidates, ns, &pstats, rec, &spans, &outcome->hits);
    UJOIN_OBS_COUNTER(rec, obs::Counter::kProbes, 1);
    UJOIN_OBS_HIST(rec, obs::Hist::kProbeLatencyNs, probe_timer.ElapsedNanos());
    spans.Span("probe", probe_span_start, spans.NowNs() - probe_span_start);
    UJOIN_OBS_FLIGHT_EVENT(obs::FlightEvent::kQueryEnd,
                           static_cast<int64_t>(outcome->hits.size()),
                           outcome->status.ok() ? 0 : 1);
  };

  const auto fold = [&](uint32_t i, internal::ProbeOutcome& outcome) {
    if (!outcome.status.ok()) return outcome.status;
    stats.Merge(outcome.stats);
    for (const SearchHit& hit : outcome.hits) {
      EmitPair(order[i], order[hit.id], hit.probability, hit.exact,
               &result.pairs);
    }
    if (run_metrics != nullptr) run_metrics->Merge(outcome.metrics);
    if (trace != nullptr) {
      trace->NoteProbe(outcome.spans.enabled());
      trace->Append(outcome.spans.events());
    }
    if (options.progress_fn != nullptr &&
        ((i + 1) % kProgressGrain == 0 || i + 1 == n)) {
      options.progress_fn(JoinProgress{i + 1, n, result.pairs.size(),
                                       total_timer.ElapsedSeconds()},
                          options.progress_user);
    }
    return Status::OK();
  };

  // Declared after everything its callbacks read.
  internal::OrderedPool pool(threads, run, fold);
  for (uint32_t begin = 0; begin < n;) {
    uint32_t end = begin;
    while (end < n && lengths[end] == lengths[begin]) ++end;
    // Make the group visible to its own probes, folding between strings so
    // the workers never wait long for ring space.
    if (options.use_qgram_filter) {
      const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
      for (uint32_t i = begin; i < end; ++i) {
        UJOIN_RETURN_IF_ERROR(pool.Fold());
        ScopedTimer timer(&stats.index_build_time);
        UJOIN_RETURN_IF_ERROR(index.Insert(i, collection[order[i]]));
      }
      if (trace != nullptr) {
        trace->AddSpan("index_insert", span_start, trace->NowNs() - span_start,
                       /*tid=*/0);
      }
    }
    if (options.use_freq_filter) {
      const int64_t span_start = trace != nullptr ? trace->NowNs() : 0;
      for (uint32_t i = begin; i < end; ++i) {
        UJOIN_RETURN_IF_ERROR(pool.Fold());
        ScopedTimer timer(&stats.freq_time);
        FrequencySummary::BuildInto(collection[order[i]], alphabet,
                                    &freq_summaries[i]);
      }
      if (trace != nullptr) {
        trace->AddSpan("freq_summaries", span_start,
                       trace->NowNs() - span_start, /*tid=*/0);
      }
    }
    pool.Release(end);
    UJOIN_RETURN_IF_ERROR(pool.Fold());
    begin = end;
  }
  UJOIN_RETURN_IF_ERROR(pool.Finish());

  stats.peak_index_memory = index.MemoryUsage();
  UJOIN_OBS_GAUGE(run_metrics, obs::Gauge::kThreads, threads);
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
