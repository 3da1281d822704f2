#ifndef UJOIN_JOIN_PROBE_CASCADE_H_
#define UJOIN_JOIN_PROBE_CASCADE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "filter/freq_filter.h"
#include "join/join_options.h"
#include "join/join_stats.h"
#include "join/search.h"
#include "text/uncertain_string.h"
#include "util/status.h"
#include "util/timer.h"

namespace ujoin {

struct ExplainCandidate;

namespace obs {
class Recorder;
class SpanCollector;
}  // namespace obs

namespace internal {

/// Wall time of one probe's pipeline stages, in integer nanoseconds: the
/// per-pair stages are sub-millisecond, so they accumulate integers and fold
/// into the seconds-based JoinStats fields once per probe.
struct StageNanos {
  int64_t qgram = 0;
  int64_t freq = 0;
  int64_t cdf = 0;
  int64_t verify = 0;
};

/// \brief One probe string R and where its candidates come from: the inputs
/// of the filter-and-verify cascade that differ between the drivers.
///
/// Candidate `c` is the string `strings[ids.empty() ? c : ids[c]]` with
/// frequency summary `summaries[c]`.  The self-join passes its visiting
/// order as `ids` (its candidates are visiting positions); the searcher
/// leaves `ids` empty (its candidates are collection ids).
struct ProbeCascade {
  const UncertainString& r;
  /// R's frequency summary; null when the frequency filter is off.
  const FrequencySummary* r_summary;
  /// The effective options (SearchTopK forces exact verification).
  const JoinOptions& options;
  const std::vector<UncertainString>& strings;
  std::span<const uint32_t> ids;
  std::span<const FrequencySummary> summaries;
  // Optional inputs, which the self-join leaves empty.
  /// Per-query verification budget and deadline.  A deadline is measured
  /// on `clock`, the query's stopwatch, which it then requires.
  const SearchLimits* limits = nullptr;
  const Timer* clock = nullptr;
  /// One explain row per candidate, in candidate order.
  ExplainCandidate* explain = nullptr;
};

/// Runs every candidate through the paper's cascade: frequency-distance
/// bound (Theorem 3), CDF bound (Theorem 4), the SearchLimits fallback to
/// the certified CDF lower bound, then trie verification (Section 6.2).
/// Each match is appended to `hits` as {candidate, probability, exact}.
///
/// Everything the probe decides is counted in `stats`, which must be the
/// probe's own (zero before its candidate generation).  `ns` carries the
/// stage time the caller spent before the cascade.  At the end, from
/// `stats` and the stage times alone, the cascade folds the times into
/// `stats` and records, once each, the funnel with its fallback counters
/// and the kernel-ns counters into `rec` (may be null) and the synthetic
/// `freq_filter`/`cdf_dp`/`trie_verify` spans into `spans` (never null; may
/// be disabled).  On a verification error the stats are left partial.
Status RunCascade(const ProbeCascade& probe,
                  std::span<const uint32_t> candidates, StageNanos ns,
                  JoinStats* stats, obs::Recorder* rec,
                  obs::SpanCollector* spans, std::vector<SearchHit>* hits);

}  // namespace internal
}  // namespace ujoin

#endif  // UJOIN_JOIN_PROBE_CASCADE_H_
