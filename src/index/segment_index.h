#ifndef UJOIN_INDEX_SEGMENT_INDEX_H_
#define UJOIN_INDEX_SEGMENT_INDEX_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "filter/freq_filter.h"
#include "filter/partition.h"
#include "filter/probe_set.h"
#include "index/flat_postings.h"
#include "text/uncertain_string.h"
#include "util/serde.h"
#include "util/status.h"

namespace ujoin {

namespace obs {
class Recorder;
}  // namespace obs

/// \brief Candidate produced by an index query: a string id together with
/// the q-gram filter evidence gathered during the merge scan.
struct IndexCandidate {
  uint32_t id;
  int matched_segments;
  double upper_bound;  ///< Theorem 2 bound on Pr(ed(R, S_id) <= k)
};

/// \brief Work counters for one index query.
struct IndexQueryStats {
  int64_t lists_scanned = 0;
  int64_t postings_scanned = 0;
  int64_t ids_touched = 0;            ///< ids appearing in >= 1 merged list
  int64_t support_pruned = 0;         ///< dropped by Lemma 5's count check
  int64_t probability_pruned = 0;     ///< dropped by Theorem 2's bound
  int64_t candidates = 0;             ///< survivors returned to the caller

  /// Accumulates another query's counters (used to fold thread-local stats
  /// into a run total).
  void Merge(const IndexQueryStats& other) {
    lists_scanned += other.lists_scanned;
    postings_scanned += other.postings_scanned;
    ids_touched += other.ids_touched;
    support_pruned += other.support_pruned;
    probability_pruned += other.probability_pruned;
    candidates += other.candidates;
  }
};

/// \brief Reusable per-thread scratch for the index query path.
///
/// Every buffer the merge scan needs — probe sets, merge cursors, heap,
/// merged lists, top pointers, α values, the event-DP row, and the output
/// candidates — and the query's frequency summary live here and grow to a
/// steady state, after which repeated queries through the same workspace
/// perform no heap allocation.
/// Ownership rule: one workspace per worker thread, created by the driver
/// (self-join, cross join, SearchMany) next to that thread's other private
/// state; a workspace must never be shared by concurrent queries.  Results
/// are independent of the workspace's history: querying through a reused
/// workspace is bit-identical to querying through a fresh one.
struct QueryWorkspace {
  /// Merges with more than this many input lists use a binary-heap merge
  /// instead of the linear min-scan; results are identical either way (the
  /// heap pops ties in list order, matching the linear fold order).
  int heap_merge_threshold = 8;

  /// A merged per-segment list entry: string id and its α_x.
  struct MergedEntry {
    uint32_t id;
    double alpha;
  };
  /// A scan head into one id-sorted posting extent.
  struct Cursor {
    const Posting* pos;
    const Posting* end;
    double weight;
  };

  // Buffers below are owned by the query path; callers should treat them as
  // opaque except `candidates` (the storage Query's return span points
  // into), `candidate_ids` (free driver-level scratch) and `query_summary`
  // (the searcher rebuilds the query's frequency summary into it).
  FlatProbeSets probes;  // the current bucket's probe sets
  ProbeSetScratch probe_scratch;
  std::vector<const char*> probe_ptrs;   // batched-fingerprint key pointers
  std::vector<uint64_t> probe_fps;       // batched fingerprints, per segment
  std::vector<Cursor> cursors;
  std::vector<uint64_t> heap;            // (id << 32 | list) min-heap keys
  std::vector<MergedEntry> merged;       // all segments' merged lists, flat
  std::vector<uint32_t> merged_begin;    // m + 1 offsets into `merged`
  std::vector<size_t> tops;
  std::vector<double> alphas;
  std::vector<int> touched;              // alphas set this round (heap path)
  std::vector<double> dp_scratch;        // event-DP row
  std::vector<IndexCandidate> candidates;
  std::vector<uint32_t> candidate_ids;
  FrequencySummary query_summary;

  /// Observability sink for the probe path.  When non-null, QueryCandidates
  /// records merged-list lengths and candidate α upper bounds into it (see
  /// obs/metrics.h).  Drivers point this at the current rank's recorder
  /// before probing; the recorder's storage is fixed-size and inline, so
  /// recording keeps the steady-state query path allocation-free.  Null
  /// (the default) disables recording at the cost of one pointer test.
  obs::Recorder* obs = nullptr;

  /// Explain sink: when non-null, QueryCandidates appends each segment's
  /// merged-list length (m values per probed bucket).  Independent of `obs`
  /// so `ujoin_cli explain` works under -DUJOIN_OBS=OFF.  Only the explain
  /// replay sets this — it allocates, so the serve path leaves it null.
  std::vector<int64_t>* explain_merged = nullptr;
};

/// \brief Inverted index over the x-th segments of all indexed strings of
/// one length l (the paper's L^x_l lists, Section 4).
///
/// Each indexed string is partitioned with the even-partition scheme; every
/// possible instance w of its x-th segment is inserted into L^x_l(w) with
/// the instance probability.  A string id appears at most once per list and
/// lists are sorted by id (ids must be inserted in increasing order, which
/// the self-join driver guarantees by visiting strings in length order).
/// Lists live in per-segment FlatPostings (arena + fingerprint hash); see
/// flat_postings.h for the freeze/delta layout and DESIGN.md for the
/// layout's rationale.
class LengthBucketIndex {
 public:
  LengthBucketIndex(int length, int k, int q);

  /// Indexes string `id`.  Segments whose instance count exceeds
  /// `max_instances_per_segment` are recorded as wildcards: they count as
  /// matched with α = 1 during queries, which keeps pruning conservative.
  Status Insert(uint32_t id, const UncertainString& s,
                int64_t max_instances_per_segment = 1 << 14);

  int length() const { return length_; }
  int num_segments() const { return static_cast<int>(segments_.size()); }
  const std::vector<Segment>& segments() const { return segments_; }
  const std::vector<uint32_t>& ids() const { return ids_; }

  /// Posting list for instance `w` of segment `x`; empty when absent.
  /// Allocation-free; the view stays valid until the next Insert/Freeze.
  FlatPostings::ListView Find(int x, std::string_view w) const {
    return lists_[static_cast<size_t>(x)].Find(w);
  }

  /// Packs every segment's postings into its contiguous arena (see
  /// FlatPostings::Freeze).  Queries work before and after freezing;
  /// read-mostly users (the searcher) freeze once after the build.
  void Freeze();

  /// Runs the paper's two-level merge scan: for every segment x the lists
  /// L^x_l(w), w ∈ probes' segment x, are merged by id into (id, α_x)
  /// pairs; the per-segment merged lists are then scanned in parallel to
  /// count matched segments (Lemma 5) and evaluate Theorem 2's bound.
  /// Pairs with bound <= tau are pruned.  A wildcard segment of `probes`
  /// (probe set that could not be built due to instance blow-up) counts as
  /// matched with α = 1 for every id.
  ///
  /// Only indexed ids < `id_limit` are considered; higher ids are skipped
  /// before any counter is touched, so results and stats are exactly those
  /// of an index that stops at `id_limit`.  The self-join uses this to
  /// probe an index that already holds the probe's whole length group.
  ///
  /// The returned span points into `workspace->candidates` and is valid
  /// until the workspace's next use.  Thread safety: const and safe to call
  /// concurrently from multiple threads with distinct workspaces, as long
  /// as no Insert/Freeze runs at the same time.
  std::span<const IndexCandidate> QueryCandidates(
      const FlatProbeSets& probes, int k, double tau,
      QueryWorkspace* workspace, IndexQueryStats* stats = nullptr,
      uint32_t id_limit = UINT32_MAX) const;

  /// Heap footprint of the flat inverted lists, in bytes.  Computed from
  /// content only, so it is deterministic and survives save/load intact.
  size_t MemoryUsage() const;

  /// Total postings across all inverted lists.
  int64_t num_postings() const;

  /// Appends this bucket to `writer` / restores it (k and q must match the
  /// values the bucket was built with; the partition is recomputed).
  /// Keys are emitted in sorted order, so serialized bytes are a pure
  /// function of the indexed content.  Deserialize rejects any id (indexed,
  /// posting or wildcard) that is not below `id_limit`.
  void Serialize(BinaryWriter* writer) const;
  static Result<LengthBucketIndex> Deserialize(BinaryReader* reader, int k,
                                               int q, uint64_t id_limit);

 private:
  int length_;
  std::vector<Segment> segments_;
  std::vector<FlatPostings> lists_;                   // one per segment x
  std::vector<std::vector<uint32_t>> wildcard_ids_;   // per segment, sorted
  std::vector<uint32_t> ids_;                         // all indexed ids
};

/// \brief The full index: one LengthBucketIndex per string length, plus the
/// probe-set plumbing to query it (Section 4).
///
/// Usage in a join: strings are visited in ascending length order; for the
/// current string R the buckets of length |R|-k .. |R| are queried, then R
/// is inserted into its own bucket, so every pair is enumerated exactly
/// once.  The self-join instead inserts a whole length group before probing
/// it and restricts each probe with `id_limit`, which yields the same pair
/// set.
///
/// Thread safety: the query path (Query, bucket, MemoryUsage, Serialize) is
/// const and touches no mutable state, so any number of threads may query
/// concurrently — each with its own QueryWorkspace — while no Insert or
/// Freeze runs.  One exception: once every bucket exists (AddBucket), an
/// Insert of length L may run concurrently with queries of lengths below L.
class InvertedSegmentIndex {
 public:
  InvertedSegmentIndex(int k, int q, ProbeSetOptions probe_options = {});

  /// Creates the empty bucket for `length` if it is missing (it answers
  /// queries like an absent one).  Once it exists, an Insert of that length
  /// leaves the bucket map unchanged and may run beside shorter queries.
  void AddBucket(int length);

  /// Indexes `s` under `id`; ids must be inserted in increasing order.
  /// Not thread-safe: must never run concurrently with another Insert, or
  /// with a Query, except as AddBucket allows.
  Status Insert(uint32_t id, const UncertainString& s);

  /// Packs every bucket's postings into contiguous arenas.  Call once after
  /// the last Insert when the index will be probed many times (the searcher
  /// does); the incremental self-join skips this and probes delta lists.
  void Freeze();

  /// Candidates among indexed strings of length `length` for probe string
  /// `r`, pruned with Lemma 5 and Theorem 2 at threshold `tau` (using the
  /// index's configured k and q).  Only ids < `id_limit` are considered
  /// (see LengthBucketIndex::QueryCandidates).  The returned span points
  /// into `workspace->candidates`; with a warmed-up workspace the call
  /// performs no heap allocation.  Every call builds the bucket's m probe
  /// sets afresh: under the shift-bounded window a segment's probe set
  /// depends on |r| - length, so neighbouring buckets rarely share one
  /// (DESIGN.md "Probe-set reuse").
  std::span<const IndexCandidate> Query(const UncertainString& r, int length,
                                        double tau,
                                        QueryWorkspace* workspace,
                                        IndexQueryStats* stats = nullptr,
                                        uint32_t id_limit = UINT32_MAX) const;

  /// Convenience overload allocating a workspace per call (tests and
  /// one-off callers only).
  std::vector<IndexCandidate> Query(const UncertainString& r, int length,
                                    double tau,
                                    IndexQueryStats* stats = nullptr,
                                    uint32_t id_limit = UINT32_MAX) const;

  const LengthBucketIndex* bucket(int length) const;

  int k() const { return k_; }
  int q() const { return q_; }

  /// Number of per-length buckets currently in the index.
  int num_length_buckets() const { return static_cast<int>(buckets_.size()); }

  /// Total segment lists across all buckets (each bucket has k+1 segments).
  int64_t num_segments() const {
    int64_t total = 0;
    for (const auto& [length, bucket] : buckets_) {
      total += bucket.num_segments();
    }
    return total;
  }

  /// Total footprint of all buckets, in bytes.
  size_t MemoryUsage() const;

  /// Total postings across all buckets.
  int64_t num_postings() const;

  /// Serialization of the whole index (k, q and every bucket).  The probe
  /// options are not persisted — supply them when deserializing.  Output
  /// bytes depend only on the indexed content (keys are written sorted).
  /// Deserialize rejects any id that is not below `id_limit`, the size of
  /// the collection the index belongs to.
  void Serialize(BinaryWriter* writer) const;
  static Result<InvertedSegmentIndex> Deserialize(
      BinaryReader* reader, ProbeSetOptions probe_options = {},
      uint64_t id_limit = UINT32_MAX);

 private:
  int k_;
  int q_;
  ProbeSetOptions probe_options_;
  std::map<int, LengthBucketIndex> buckets_;
};

}  // namespace ujoin

#endif  // UJOIN_INDEX_SEGMENT_INDEX_H_
