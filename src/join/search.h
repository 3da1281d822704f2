#ifndef UJOIN_JOIN_SEARCH_H_
#define UJOIN_JOIN_SEARCH_H_

#include <cstdint>
#include <vector>

#include "filter/freq_filter.h"
#include "index/segment_index.h"
#include "join/join_options.h"
#include "join/join_stats.h"
#include "text/alphabet.h"
#include "text/uncertain_string.h"
#include "util/status.h"

namespace ujoin {

namespace obs {
class QueryLog;
class Recorder;
class SpanCollector;
class TraceRecorder;
}  // namespace obs

struct ExplainData;
struct ExplainResult;

/// Version of the searcher save/load container (see Save/Load); exposed so
/// the serve health page can report what format is resident.
inline constexpr uint32_t kSearcherFormatVersion = 2;

/// \brief One hit of a similarity search: a collection index plus the match
/// probability (exact when `exact`, else a certified lower bound > τ from the
/// CDF filter or from verification stopped at its (k, τ) verdict; see
/// JoinOptions::always_verify).
struct SearchHit {
  uint32_t id;
  double probability;
  bool exact;

  friend bool operator==(const SearchHit& a, const SearchHit& b) {
    return a.id == b.id;
  }
  friend bool operator<(const SearchHit& a, const SearchHit& b) {
    return a.id < b.id;
  }
};

/// \brief Prebuilt similarity-search structure over an uncertain string
/// collection: the inverted segment index plus the frequency side index.
///
/// Where the self-join interleaves querying and indexing, the searcher
/// indexes the whole collection once and answers arbitrarily many
/// (k, τ)-matching queries — the "similarity search" primitive the paper's
/// filters were originally designed around (cf. [4, 6]).  Queries may be
/// uncertain strings themselves; a deterministic query is simply the
/// single-instance special case (Section 3.1).
class SimilaritySearcher {
 public:
  /// Builds the index structures; the collection is copied in.
  static Result<SimilaritySearcher> Create(
      std::vector<UncertainString> collection, const Alphabet& alphabet,
      const JoinOptions& options);

  /// All ids with Pr(ed(query, S_id) <= k) > τ, sorted by id.
  ///
  /// `workspace` is the per-thread scratch for the index probe; callers
  /// issuing many searches should own one per thread and pass it in so the
  /// candidate-generation stage stops allocating.  When null, a workspace
  /// is created for the call.
  ///
  /// `metrics` and `spans` are optional observability sinks for this one
  /// query (see src/obs/): histograms of verify latency, explored trie
  /// nodes, merged-list lengths, and candidate α bounds go to `metrics`;
  /// per-stage trace spans go to `spans`.  Both must be private to the call
  /// (drivers use one per query and fold in query order).  Recording into
  /// `metrics` stays allocation-free; span collection may allocate.
  ///
  /// `limits`, when non-null, overrides the Create-time
  /// JoinOptions::limits for this query (the serve layer's per-query
  /// deadline / verification budget).  Candidates whose exact verification
  /// a limit forbids are decided from their CDF bounds instead and counted
  /// in stats->budget_fallbacks / deadline_fallbacks; when either count is
  /// non-zero the result set is certified-but-possibly-incomplete
  /// (JoinStats::Inexact).
  Result<std::vector<SearchHit>> Search(
      const UncertainString& query, JoinStats* stats = nullptr,
      QueryWorkspace* workspace = nullptr, obs::Recorder* metrics = nullptr,
      obs::SpanCollector* spans = nullptr,
      const SearchLimits* limits = nullptr) const;

  /// The `count` most probable matches with Pr(ed <= k) > τ, sorted by
  /// descending probability (ties by id).  Forces exact verification so
  /// probabilities are comparable.
  Result<std::vector<SearchHit>> SearchTopK(const UncertainString& query,
                                            int count,
                                            JoinStats* stats = nullptr,
                                            QueryWorkspace* workspace =
                                                nullptr) const;

  /// Answers many queries, optionally in parallel (`threads` <= 0 picks the
  /// hardware concurrency) on the ordered pool the self-join uses
  /// (join/ordered_pool.h).  The searcher is immutable after Create, so
  /// concurrent Search calls are safe; each worker owns one QueryWorkspace.
  /// Results arrive in query order.  When `stats` is non-null, every
  /// query's JoinStats are folded into it with JoinStats::Merge in query
  /// order, as the queries finish, so the aggregate is identical for every
  /// thread count.  Observability sinks follow the same pattern: each
  /// query records into a private recorder/span buffer and the calling
  /// thread folds them into the sinks in query order — same determinism
  /// contract as the stats.  `metrics`/`trace` default to the sinks
  /// attached to the Create-time options (JoinOptions::metrics /
  /// JoinOptions::trace); pass
  /// them explicitly for searchers restored with Load, whose persisted
  /// options carry no sinks.
  /// `limits` follows the Search contract: a non-null value overrides the
  /// Create-time JoinOptions::limits for every query of the batch.
  /// `query_log`, when non-null, receives one QueryLogRecord per query —
  /// written in query order with connection 0 and seq = query index + 1, so
  /// the log's deterministic fields are identical for every thread count.
  Result<std::vector<std::vector<SearchHit>>> SearchMany(
      const std::vector<UncertainString>& queries, int threads = 1,
      JoinStats* stats = nullptr, obs::Recorder* metrics = nullptr,
      obs::TraceRecorder* trace = nullptr,
      const SearchLimits* limits = nullptr,
      obs::QueryLog* query_log = nullptr) const;

  /// Replays one query and records the full funnel narrative: per-length
  /// probe work, per-candidate filter outcomes with their bound values, and
  /// the verification verdicts (see join/explain.h).  Purely diagnostic —
  /// the hits are exactly Search's.  Unlike the obs sinks this works under
  /// -DUJOIN_OBS=OFF and on Load-restored searchers (it needs no
  /// Create-time sink attachment).  Defined in explain.cc.
  Result<ExplainResult> Explain(const UncertainString& query,
                                const SearchLimits* limits = nullptr) const;

  const std::vector<UncertainString>& collection() const {
    return collection_;
  }
  /// The alphabet the collection (and every query) must draw from; the
  /// serve layer parses request lines against it.
  const Alphabet& alphabet() const { return alphabet_; }
  /// The effective join options (Create-time or Load-restored).
  const JoinOptions& options() const { return options_; }
  size_t IndexMemoryUsage() const { return index_.MemoryUsage(); }
  /// Index shape, for the serve health page and explain envelope.
  int NumIndexLengthBuckets() const { return index_.num_length_buckets(); }
  int64_t NumIndexSegments() const { return index_.num_segments(); }

  /// Persists the searcher (join options, collection with full-precision
  /// probabilities, and the inverted segment index) to `path`.  Frequency
  /// summaries are cheap and rebuilt at load time.
  Status Save(const std::string& path) const;

  /// Restores a searcher written by Save.  The alphabet must contain every
  /// symbol of the persisted collection; corrupt or truncated files are
  /// rejected with InvalidArgument.
  static Result<SimilaritySearcher> Load(const std::string& path,
                                         const Alphabet& alphabet);

 private:
  SimilaritySearcher(std::vector<UncertainString> collection,
                     const Alphabet& alphabet, const JoinOptions& options);

  /// Fills the structures Create and Load derive from the collection: the
  /// ids by length and, when the frequency filter is on, one frequency
  /// summary per string.
  void BuildSideStructures();

  Result<std::vector<SearchHit>> SearchImpl(const UncertainString& query,
                                            JoinStats* stats, bool force_exact,
                                            QueryWorkspace* workspace,
                                            obs::Recorder* metrics,
                                            obs::SpanCollector* spans,
                                            const SearchLimits& limits,
                                            ExplainData* explain) const;

  std::vector<UncertainString> collection_;
  const Alphabet alphabet_;
  JoinOptions options_;
  InvertedSegmentIndex index_;
  std::vector<FrequencySummary> freq_summaries_;
  std::vector<std::vector<uint32_t>> ids_by_length_;  // indexed by length
};

}  // namespace ujoin

#endif  // UJOIN_JOIN_SEARCH_H_
