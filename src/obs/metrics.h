#ifndef UJOIN_OBS_METRICS_H_
#define UJOIN_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>

namespace ujoin {
namespace obs {

class JsonWriter;

// ---------------------------------------------------------------------------
// Metric registry
//
// The registry is a fixed, enum-indexed set of metrics known at compile time:
// no string lookups on the hot path, no registration order to get wrong, and
// a Recorder is a flat value type whose size is a compile-time constant.
// Adding a metric means adding an enumerator here and one metadata row in
// metrics.cc; the JSON schema picks it up automatically.
//
// Naming scheme (documented in DESIGN.md "Observability"): lower_snake_case,
// with the unit as a suffix when the value is not a plain count
// (`_ns`, `_bytes`, `_ppm` = parts-per-million, `_permille`).
// ---------------------------------------------------------------------------

/// Histograms: distributions recorded per event on worker ranks.
enum class Hist : int {
  /// Wall time of one trie verification (PairVerifier::Decide), nanoseconds.
  kVerifyLatencyNs = 0,
  /// s-trie nodes explored by one verification (Section 6.2 search).
  kExploredTrieNodes,
  /// Length of one per-segment merged posting list (stage 1 of
  /// QueryCandidates), in postings.
  kMergedListLength,
  /// Candidate upper bound from Theorem 2's DP, in parts-per-million
  /// (round(1e6 * P(>= required matches))).
  kCandidateAlphaPpm,
  /// Wall time of one whole probe (a self-join probe or a query),
  /// nanoseconds.
  kProbeLatencyNs,
  /// Saturating possible-world count of one verified pair: the product of
  /// per-position alternative counts over both strings.  Makes the known
  /// exponential `always_verify` blowup visible before the guard lands
  /// (ROADMAP "Guard against exponential exact verification").
  kVerifyWorldCount,
  /// Queries answered in one serve-layer batch (requests between batch
  /// separators on one connection; see src/serve/).
  kServeBatchSize,
};
inline constexpr int kNumHists = 7;

/// Counters: monotonically increasing event counts.
enum class Counter : int {
  /// Probes executed (self-join probes + queries, cross-join probes).
  kProbes = 0,
  /// Queries answered by SimilaritySearcher::Search/SearchMany.
  kQueries,
  /// Candidates decided from CDF bounds because the possible-world product
  /// exceeded SearchLimits::max_verify_worlds or the pair exceeded every
  /// VerifyOptions cap (max_trie_nodes, max_world_pairs).
  kVerifyBudgetFallbacks,
  /// Candidates decided from CDF bounds because the per-query deadline
  /// (SearchLimits::deadline_ns) expired.
  kVerifyDeadlineFallbacks,
  /// Connections accepted by the serve layer (src/serve/).
  kServeConnections,
  /// Connections rejected by admission control (429-style busy response).
  kServeRejectedConnections,
  /// Request lines answered by the serve layer (including error responses).
  kServeRequests,
  /// Request lines answered with an error (malformed or oversized).
  kServeRequestErrors,
  /// Query batches completed (metric-snapshot boundaries).
  kServeBatches,
  // Wall time of the probe-path kernels (util/simd.h) and the loops that
  // call them, in nanoseconds.  Like the latency histograms these carry
  // wall-clock values, so they are excluded from cross-run bit-identity
  // comparisons (unit "ns"); their *fold* is still the deterministic int64
  // sum.
  /// CDF-bound filter evaluation: the banded DP cell kernel (Theorem 4).
  kKernelCdfDpNs,
  /// Stage-2 merged-list scan incl. the event-count DP kernel (Theorem 2).
  kKernelEventDpNs,
  /// Frequency-distance filter evaluation: the S-array dot kernels
  /// (Theorem 3).
  kKernelFreqDistNs,
  /// Batched probe-key fingerprinting (FNV+splitmix kernel).
  kKernelFingerprintNs,
  /// Stage-1 posting-list merge (prefetched linear/heap scan).
  kKernelMergeNs,
  /// Connections closed by the serve-layer idle keep-alive timeout
  /// (--idle-timeout-ms).
  kServeIdleClosedConnections,
  /// Stall reports captured by the watchdog (src/obs/watchdog.h).
  kWatchdogStallsCaptured,
};
inline constexpr int kNumCounters = 16;

/// Gauges: point-in-time values; Merge keeps the maximum so folds are
/// order-independent.
enum class Gauge : int {
  kThreads = 0,
  kPeakIndexMemoryBytes,
  kCollectionSize,
};
inline constexpr int kNumGauges = 3;

/// Filter-funnel stages, in pipeline order (Section 5's cascade): each stage
/// records the candidates that entered it and the candidates that survived
/// it.  A disabled stage is a pass-through (entered == survived), so the
/// funnel shape is always a connected chain.
enum class FunnelStage : int {
  /// q-gram index probe (Theorem 2).  Enters: length-compatible pairs.
  kQgram = 0,
  /// Frequency-distance filter (Theorem 3).
  kFreqDistance,
  /// CDF-bound filter (Theorem 4).  Survivors are the accepted + undecided
  /// candidates (rejects are pruned).
  kCdfBound,
  /// Trie verification (Section 6).  Enters: pairs actually verified
  /// (CDF-accepted pairs that skip verification never enter this stage).
  /// Survives: verified pairs emitted as results.
  kVerify,
};
inline constexpr int kNumFunnelStages = 4;

/// Static metadata for one registry entry.
struct MetricInfo {
  const char* name;  ///< JSON key, lower_snake_case with unit suffix.
  const char* unit;  ///< "ns", "count", "ppm", "permille", "bytes".
  const char* help;  ///< One-line description.
};

const MetricInfo& HistInfo(Hist h);
const MetricInfo& CounterInfo(Counter c);
const MetricInfo& GaugeInfo(Gauge g);
/// `name` holds the stage label ("qgram", "freq_distance", ...).
const MetricInfo& FunnelStageInfo(FunnelStage s);

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// \brief Fixed-bucket log2-scale histogram of non-negative int64 samples.
///
/// Bucket 0 holds values <= 0; bucket b (1..63) holds values with bit width
/// b, i.e. [2^(b-1), 2^b).  All state is int64, so Merge is a plain integer
/// sum: commutative, associative, and bit-identical under any fold order —
/// the property the deterministic probe-order folding relies on.  Storage
/// is a fixed inline array; recording never allocates.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  void Record(int64_t value) {
    ++buckets_[static_cast<size_t>(BucketIndex(value))];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }

  void Merge(const Histogram& other) {
    for (size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void Clear() { *this = Histogram(); }

  int64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  /// Minimum recorded value; meaningless when count() == 0.
  int64_t min() const { return min_; }
  int64_t max() const { return max_; }
  int64_t bucket(int b) const { return buckets_[static_cast<size_t>(b)]; }

  /// Bucket index for a value: 0 for value <= 0, else its bit width
  /// (clamped to the last bucket, which is unreachable for int64 inputs).
  static int BucketIndex(int64_t value) {
    if (value <= 0) return 0;
    int width = 0;
    for (uint64_t v = static_cast<uint64_t>(value); v != 0; v >>= 1) ++width;
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  /// Inclusive lower bound of bucket b (0 for bucket 0, else 2^(b-1)).
  static int64_t BucketLowerBound(int b) {
    return b <= 0 ? 0 : int64_t{1} << (b - 1);
  }

  /// Estimate of the p-quantile (p in [0, 1]): the lower bound of the bucket
  /// holding the rank-ceil(p * count) sample, clamped to [min, max].  Exact
  /// for the distribution of bucket lower bounds; within one power of two of
  /// the true quantile otherwise.
  int64_t Percentile(double p) const;

  bool operator==(const Histogram& other) const {
    return buckets_ == other.buckets_ && count_ == other.count_ &&
           sum_ == other.sum_ && min_ == other.min_ && max_ == other.max_;
  }

 private:
  std::array<int64_t, kNumBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = std::numeric_limits<int64_t>::max();
  int64_t max_ = std::numeric_limits<int64_t>::min();
};

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// \brief One probe's (or one run's) metric state: every registry
/// histogram, counter, and gauge, inline.
///
/// A Recorder is a flat value type (~3 KiB) with no heap state: recording is
/// a few integer ops and never allocates, which is how instrumentation stays
/// inside the steady-state zero-allocation guarantee of the probe path.
/// Drivers give each probe its own Recorder and fold them with Merge in the
/// same deterministic probe order as JoinStats::Merge; because
/// all state is int64, the folded totals are bit-identical for every thread
/// count and fold order.
///
/// Recording is disabled by default in the sense that no Recorder is
/// attached: pipeline hooks take a `Recorder*` that is null unless the
/// caller opted in (JoinOptions::metrics, QueryWorkspace::obs), and the
/// UJOIN_OBS_* macros reduce to one null check.
class Recorder {
 public:
  void RecordHist(Hist h, int64_t value) {
    hists_[static_cast<size_t>(h)].Record(value);
  }
  void AddCounter(Counter c, int64_t delta = 1) {
    counters_[static_cast<size_t>(c)] += delta;
  }
  void SetGauge(Gauge g, int64_t value) {
    gauges_[static_cast<size_t>(g)] =
        std::max(gauges_[static_cast<size_t>(g)], value);
  }
  /// Adds one probe's candidate flow through funnel stage `s`: `entered`
  /// candidates reached the stage, `survived` of them passed it.
  void AddFunnel(FunnelStage s, int64_t entered, int64_t survived) {
    funnel_entered_[static_cast<size_t>(s)] += entered;
    funnel_survived_[static_cast<size_t>(s)] += survived;
  }

  /// Folds `other` into this recorder: histograms and counters add, gauges
  /// take the max.  Integer-only state makes the result independent of fold
  /// order.
  void Merge(const Recorder& other);

  void Clear() { *this = Recorder(); }

  const Histogram& hist(Hist h) const {
    return hists_[static_cast<size_t>(h)];
  }
  int64_t counter(Counter c) const {
    return counters_[static_cast<size_t>(c)];
  }
  int64_t gauge(Gauge g) const { return gauges_[static_cast<size_t>(g)]; }
  int64_t funnel_entered(FunnelStage s) const {
    return funnel_entered_[static_cast<size_t>(s)];
  }
  int64_t funnel_survived(FunnelStage s) const {
    return funnel_survived_[static_cast<size_t>(s)];
  }

  bool operator==(const Recorder& other) const {
    return hists_ == other.hists_ && counters_ == other.counters_ &&
           gauges_ == other.gauges_ &&
           funnel_entered_ == other.funnel_entered_ &&
           funnel_survived_ == other.funnel_survived_;
  }

  /// Appends the metrics JSON object (schema documented in DESIGN.md
  /// "Observability"; versioned via kMetricsSchemaVersion) as a value.
  void AppendJson(JsonWriter* w) const;

  /// Renders AppendJson into a standalone string.
  std::string ToJson() const;

 private:
  std::array<Histogram, kNumHists> hists_{};
  std::array<int64_t, kNumCounters> counters_{};
  std::array<int64_t, kNumGauges> gauges_{};
  std::array<int64_t, kNumFunnelStages> funnel_entered_{};
  std::array<int64_t, kNumFunnelStages> funnel_survived_{};
};

/// Version of the "metrics" JSON object emitted by Recorder::AppendJson.
/// Version 2 dropped the self-join driver's batch counter, batch-size gauge
/// and batch-imbalance histogram: the join no longer runs in batches.
inline constexpr int kMetricsSchemaVersion = 2;

}  // namespace obs
}  // namespace ujoin

#endif  // UJOIN_OBS_METRICS_H_
