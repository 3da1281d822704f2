#ifndef UJOIN_JOIN_JOIN_STATS_H_
#define UJOIN_JOIN_JOIN_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "index/segment_index.h"
#include "obs/metrics.h"
#include "verify/verifier.h"

namespace ujoin {

namespace obs {
struct QueryLogRecord;
}  // namespace obs

/// \brief Per-stage counters and timings of one join (or search) run.
///
/// These are the quantities plotted in the paper's Figures 2–9: candidates
/// surviving each filter, accept/reject counts of the CDF bounds, exact
/// verifications performed, per-stage wall time, and peak index memory.
struct JoinStats {
  // --- pair flow ------------------------------------------------------
  /// Pairs within the length window |ΔL| <= k (the filter pipeline input).
  int64_t length_compatible_pairs = 0;
  /// Pairs surviving the q-gram stage (equals the input when disabled).
  /// The stage's prunes are counted in `index_stats` (support_pruned by
  /// Lemma 5's count condition, probability_pruned by Theorem 2's bound).
  int64_t qgram_candidates = 0;
  /// Pairs surviving the frequency-distance stage.
  int64_t freq_candidates = 0;
  int64_t freq_lower_pruned = 0;  ///< by Lemma 6 (fd lower bound > k)
  int64_t freq_upper_pruned = 0;  ///< by Theorem 3 (bound <= τ)
  /// CDF-bound decisions (Section 6.1).
  int64_t cdf_accepted = 0;
  int64_t cdf_rejected = 0;
  int64_t cdf_undecided = 0;
  /// Pairs handed to exact verification, and final results.
  int64_t verified_pairs = 0;
  int64_t result_pairs = 0;
  /// Verified pairs that became results (the rest of `result_pairs` were
  /// decided from CDF bounds).
  int64_t verified_hits = 0;
  /// Saturating sum over verified pairs of |worlds(R)| x |worlds(S)|: the
  /// world enumeration the trie verification stood in for.
  int64_t verify_worlds = 0;
  /// Candidates whose exact verification was skipped because the
  /// possible-world product exceeded SearchLimits::max_verify_worlds, or
  /// failed because the pair exceeded every VerifyOptions cap
  /// (max_trie_nodes for the plain and compressed tries, max_world_pairs
  /// for naive enumeration).  The pair was decided from its CDF lower
  /// bound instead; results may be inexact.
  int64_t budget_fallbacks = 0;
  /// Candidates skipped because SearchLimits::deadline_ns expired.
  int64_t deadline_fallbacks = 0;

  /// True when any verification was skipped under a limit, i.e. the result
  /// set is certified (every reported pair has Pr > τ) but possibly
  /// incomplete and with lower-bound probabilities.
  bool Inexact() const { return budget_fallbacks + deadline_fallbacks > 0; }

  // --- per-stage wall time, seconds -----------------------------------
  double qgram_time = 0.0;
  double freq_time = 0.0;
  double cdf_time = 0.0;
  double verify_time = 0.0;
  double index_build_time = 0.0;
  double total_time = 0.0;

  // --- resources -------------------------------------------------------
  size_t peak_index_memory = 0;  ///< inverted-index bytes (Figure 7)
  IndexQueryStats index_stats;
  VerifyStats verify_stats;

  /// Filtering time proper: the three filter stages, excluding both
  /// verification and index construction.  Index build is reported
  /// separately (`index_build_time`); callers reproducing the paper's
  /// "filtering time" figures, which fold index construction in, add it
  /// back explicitly.
  double FilterTime() const { return qgram_time + freq_time + cdf_time; }

  /// One filter-funnel stage's candidate flow.
  struct FunnelEdge {
    int64_t entered = 0;
    int64_t survived = 0;
  };

  /// The filter funnel (DESIGN.md "Observability"), one edge per
  /// obs::FunnelStage, read off the pair-flow counters.  A disabled stage is
  /// a pass-through (entered == survived); pairs the CDF bound accepts
  /// outright never enter the verify stage.
  std::array<FunnelEdge, obs::kNumFunnelStages> Funnel() const;

  /// Accumulates `other` into this: pair-flow counters and per-stage times
  /// sum, `peak_index_memory` takes the max, and the nested index/verify
  /// work counters sum.  The parallel join drivers give every probe its own
  /// JoinStats and fold them into the run total with this, in probe order,
  /// so merged counters are deterministic.
  void Merge(const JoinStats& other);

  /// Multi-line human-readable dump (used by examples and benches).
  std::string ToString() const;

  /// Machine-readable JSON object with a versioned, stable schema
  /// (`kJoinStatsSchemaVersion`; documented in DESIGN.md "Observability").
  /// Serialization is deterministic: identical stats produce identical
  /// bytes, regardless of how the run that produced them was threaded.
  std::string ToJson() const;
};

/// Version of the JSON object emitted by JoinStats::ToJson.  Version 2 has
/// no `pairs.qgram_*_pruned` keys: the q-gram prunes are under `index`.
inline constexpr int kJoinStatsSchemaVersion = 2;

/// The query-log record of one answered query, built from that query's own
/// stats: funnel, candidates, verify worlds, fallbacks, verdict and timing
/// all come from `stats`, so the record is complete under -DUJOIN_OBS=OFF.
/// Allocation-free.  Error answers pass default stats.
obs::QueryLogRecord MakeQueryLogRecord(const JoinStats& stats,
                                       int64_t connection, int64_t seq,
                                       int64_t query_length, int64_t hits,
                                       bool error);

}  // namespace ujoin

#endif  // UJOIN_JOIN_JOIN_STATS_H_
