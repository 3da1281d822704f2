#include "join/cross_join.h"

#include <algorithm>

#include "join/search.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ujoin {

Result<CrossJoinResult> SimilarityJoin(
    const std::vector<UncertainString>& left,
    const std::vector<UncertainString>& right, const Alphabet& alphabet,
    const JoinOptions& options) {
  CrossJoinResult result;
  Timer total_timer;

  // Index the smaller side; probe with the larger side.  The (k, τ)
  // predicate is symmetric, so only the reported pair orientation flips.
  const bool right_indexed = right.size() <= left.size();
  const std::vector<UncertainString>& indexed =
      right_indexed ? right : left;
  const std::vector<UncertainString>& probes = right_indexed ? left : right;

  obs::TraceRecorder* const trace = options.trace;
  const int64_t build_span_start = trace != nullptr ? trace->NowNs() : 0;
  ScopedTimer build_timer(&result.stats.index_build_time);
  Result<SimilaritySearcher> searcher =
      SimilaritySearcher::Create(indexed, alphabet, options);
  build_timer.StopAndGet();
  if (trace != nullptr) {
    trace->AddSpan("index_build", build_span_start,
                   trace->NowNs() - build_span_start, /*tid=*/0);
  }
  if (!searcher.ok()) return searcher.status();

  // Every probe is one search of the frozen index: SearchMany runs the
  // probes on options.threads workers and folds their stats, metrics and
  // spans (the Create-time sinks) in probe order.
  Result<std::vector<std::vector<SearchHit>>> hits =
      searcher->SearchMany(probes, options.threads, &result.stats);
  if (!hits.ok()) return hits.status();
  for (size_t probe_id = 0; probe_id < hits->size(); ++probe_id) {
    for (const SearchHit& hit : (*hits)[probe_id]) {
      const uint32_t lhs =
          right_indexed ? static_cast<uint32_t>(probe_id) : hit.id;
      const uint32_t rhs =
          right_indexed ? hit.id : static_cast<uint32_t>(probe_id);
      result.pairs.push_back(JoinPair{lhs, rhs, hit.probability, hit.exact});
    }
  }
  result.stats.peak_index_memory = searcher->IndexMemoryUsage();
  UJOIN_OBS_GAUGE(options.metrics, obs::Gauge::kCollectionSize,
                  static_cast<int64_t>(indexed.size() + probes.size()));
  std::sort(result.pairs.begin(), result.pairs.end());
  if (options.progress_fn != nullptr) {
    options.progress_fn(
        JoinProgress{probes.size(), probes.size(), result.pairs.size(),
                     total_timer.ElapsedSeconds()},
        options.progress_user);
  }
  result.stats.total_time = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace ujoin
