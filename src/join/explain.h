#ifndef UJOIN_JOIN_EXPLAIN_H_
#define UJOIN_JOIN_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "join/join_stats.h"
#include "join/search.h"
#include "obs/metrics.h"
#include "text/uncertain_string.h"

namespace ujoin {

// ---------------------------------------------------------------------------
// Explain replay (DESIGN.md "Per-query diagnostics")
//
// `ujoin_cli explain` replays one query through the normal search path with
// a narrative sink attached: which length buckets were probed and how much
// merge work each cost, then — for every q-gram survivor — which filter of
// the paper's cascade decided it and with what bound value.  The narrative
// is a pure function of (index, query, options, limits): rendered without
// the timing section it is byte-identical across runs and thread counts,
// the same contract the registry's deterministic fields keep.  Unlike the
// obs sinks, explain works under -DUJOIN_OBS=OFF and on Load-restored
// searchers (nothing needs to be attached at Create time).
// ---------------------------------------------------------------------------

namespace obs {
class JsonWriter;
}  // namespace obs

/// Version of the "ujoin.explain" JSON envelope schema.  Version 2 dropped
/// two verification-setting keys from "options", version 3 the constant
/// kernel-form key.
inline constexpr int kExplainSchemaVersion = 3;

/// Writes the persisted (k, τ) and filter options as keys of the JSON
/// object `w` has open: the explain envelope's "options" object and the
/// start of the run report's, in one fixed key order.
void AppendJoinOptionsFields(const JoinOptions& options, obs::JsonWriter* w);

/// \brief Probe work for one length bucket [|query|-k, |query|+k].
struct ExplainProbe {
  int length = 0;
  int64_t indexed_ids = 0;  ///< Collection strings of this length.
  int num_segments = 0;     ///< Bucket segments merged (0 = q-gram filter off).
  // IndexQueryStats deltas for this bucket's merge scan.
  int64_t lists_scanned = 0;
  int64_t postings_scanned = 0;
  int64_t ids_touched = 0;
  int64_t support_pruned = 0;      ///< Lemma 5 count check.
  int64_t probability_pruned = 0;  ///< Theorem 2 bound.
  int64_t candidates = 0;          ///< Survivors into the cascade.
  std::vector<int64_t> merged_list_lengths;  ///< One per segment x.
};

/// Which stage of the cascade decided a candidate.
enum class ExplainStage {
  kFreqLowerPruned,   ///< frequency-distance lower bound > k
  kFreqUpperPruned,   ///< frequency upper bound <= tau
  kCdfRejected,       ///< CDF upper bound <= tau
  kCdfAccepted,       ///< CDF lower bound > tau, verification skipped
  kBudgetFallback,    ///< world budget or verify caps exceeded; CDF bound
  kDeadlineFallback,  ///< deadline exceeded, decided from CDF bound
  kVerified,          ///< trie verification: (k, τ) verdict, or exact
                      ///< probability under always_verify
};

/// Stable lowercase name, part of the ujoin.explain schema.
const char* ExplainStageName(ExplainStage stage);

/// \brief One q-gram survivor's path through the filter cascade.
struct ExplainCandidate {
  uint32_t id = 0;
  int length = 0;
  int matched_segments = -1;  ///< Lemma 5 count; -1 = q-gram filter off.
  double qgram_bound = 0.0;   ///< Theorem 2 upper bound (0 = filter off).
  bool have_freq = false;
  int freq_lower_bound = 0;      ///< Frequency-distance ed lower bound.
  double freq_upper_bound = 0.0;
  bool have_cdf = false;
  double cdf_lower = 0.0;  ///< CDF lower bound at distance k.
  ExplainStage stage = ExplainStage::kVerified;
  int64_t verify_worlds = 0;  ///< World product, stage kVerified only.
  bool emitted = false;       ///< Became a hit.
  double probability = 0.0;   ///< Hit probability (exact or CDF lower bound).
  bool exact = false;
};

/// \brief The narrative SearchImpl fills when an explain sink is attached.
struct ExplainData {
  std::vector<ExplainProbe> probes;          ///< One per probed length.
  std::vector<ExplainCandidate> candidates;  ///< Cascade order (= id order
                                             ///< within each probed length).
};

/// \brief Everything Explain returns: the narrative, the run's stats, the
/// hits (exactly Search's), and the per-query metrics recorder (kernel-ns
/// counters for the timing section; all-zero under -DUJOIN_OBS=OFF).
struct ExplainResult {
  ExplainData data;
  JoinStats stats;
  std::vector<SearchHit> hits;
  obs::Recorder metrics;
};

/// Renders the versioned "ujoin.explain" JSON envelope (newline-terminated).
/// With `include_timing` false the envelope contains deterministic fields
/// only and is byte-identical across runs for the same (index, query,
/// limits); with true a trailing "timing_ns" object is appended.
std::string RenderExplainJson(const SimilaritySearcher& searcher,
                              const UncertainString& query,
                              const ExplainResult& result,
                              const SearchLimits& limits, bool include_timing);

/// Renders a human-readable multi-line narrative of the same replay (for
/// stderr; the JSON envelope is the machine artifact).
std::string RenderExplainNarrative(const SimilaritySearcher& searcher,
                                   const UncertainString& query,
                                   const ExplainResult& result);

}  // namespace ujoin

#endif  // UJOIN_JOIN_EXPLAIN_H_
