#ifndef UJOIN_JOIN_JOIN_OPTIONS_H_
#define UJOIN_JOIN_JOIN_OPTIONS_H_

#include <cstdint>

#include "filter/probe_set.h"
#include "verify/verifier.h"

namespace ujoin {

namespace obs {
class Recorder;
class TraceRecorder;
}  // namespace obs

/// \brief Snapshot handed to JoinOptions::progress_fn as a run advances.
struct JoinProgress {
  uint64_t processed;      ///< strings (or probes/queries) completed so far
  uint64_t total;          ///< total strings (or probes/queries) in the run
  uint64_t result_pairs;   ///< result pairs found so far
  double elapsed_seconds;  ///< wall time since the run started
};

/// \brief Per-query resource limits for the search drivers.
///
/// Both limits bound the exact-verification stage, where the known
/// pathological cost lives (strings with many high-fanout uncertain
/// positions make the possible-world product — and with it `always_verify`
/// work — explode; see ROADMAP "Guard against exponential exact
/// verification").  A candidate that trips a limit is not verified:
/// the query falls back to the certified CDF bounds for that pair (the
/// Theorem 4 bounds are always cheap to compute) and the fallback is
/// counted in JoinStats::budget_fallbacks / deadline_fallbacks, which is
/// how callers — notably the resident serve layer — know to mark the
/// response inexact.
///
/// `max_verify_worlds` is a pure function of the query and candidate
/// strings, so results under a world budget stay deterministic and
/// thread-count invariant.  `deadline_ns` is wall-clock and therefore
/// timing-dependent: two runs may fall back on different candidates.  Use
/// the world budget when reproducibility matters and the deadline as the
/// serve layer's last-resort latency guard.
struct SearchLimits {
  /// Cap on the saturating |worlds(query)| x |worlds(candidate)| product
  /// above which a candidate is never exactly verified.  0 = unlimited.
  int64_t max_verify_worlds = 0;

  /// Per-query wall-clock deadline in nanoseconds, checked before each
  /// candidate verification.  0 = none.
  int64_t deadline_ns = 0;
};

/// \brief Parameters of a (k, τ) similarity join or search.
///
/// The filter toggles reproduce the paper's algorithm variants
/// (Section 7): QFCT enables everything (default); QCT disables the
/// frequency filter; QFT disables the CDF filter; FCT disables q-gram
/// filtering (and with it the inverted index).
struct JoinOptions {
  int k = 2;        ///< edit-distance threshold
  double tau = 0.1; ///< probability threshold; a pair matches iff
                    ///< Pr(ed(R,S) <= k) > tau
  int q = 3;        ///< q-gram (segment) length driving the partitioning

  bool use_qgram_filter = true;  ///< Sections 3–4
  bool use_freq_filter = true;   ///< Section 5
  bool use_cdf_filter = true;    ///< Section 6.1

  /// When false, the q-gram stage prunes only with the exact support-level
  /// necessary condition (Lemmas 4/5) and skips Theorem 2's probabilistic
  /// bound — a conservative mode immune to the bound's independence
  /// approximation (see DESIGN.md).
  bool qgram_probabilistic_pruning = true;

  /// The one switch for exact probabilities.  By default a pair is decided
  /// by its (k, τ) verdict: the CDF lower bound accepts it without
  /// verification, and trie verification stops once the verdict is certain
  /// (TrieVerifier::DecideSimilar), so a reported probability may be a
  /// certified lower bound (> τ) flagged inexact.  When set, every surviving
  /// pair is verified to its exact probability, CDF-accepted ones included.
  /// The pair set is the same either way.
  bool always_verify = false;

  VerifyOptions verify;
  ProbeSetOptions probe;

  /// Default per-query limits for SimilaritySearcher::Search/SearchMany
  /// (unlimited by default; see SearchLimits).  Callers that need per-query
  /// values — the serve layer's deadlines — pass an override to Search
  /// instead of copying the options.  Not persisted by Save/Load: limits
  /// are a property of the serving policy, not of the index.
  SearchLimits limits;

  /// Worker threads for the parallel drivers: SimilaritySelfJoin, the
  /// two-collection SimilarityJoin, and SimilaritySearcher::SearchMany.
  /// <= 0 picks the hardware concurrency.  With one thread everything runs
  /// on the calling thread; with more, `threads` workers run the probes
  /// while the calling thread feeds and folds them.  All drivers return
  /// identical results for every thread count.
  int threads = 1;

  // --- observability (src/obs/; DESIGN.md "Observability") --------------
  // All sinks are borrowed, never owned: they must outlive every join or
  // search call that sees this options value, and null (the default) means
  // recording is off — the instrumentation then costs one pointer test.

  /// Metrics sink.  When set, the drivers give each probe a private
  /// Recorder and fold them into *metrics in probe order, as JoinStats::Merge
  /// folds the stats, so the merged counters and work-derived histograms
  /// are identical for every thread count.
  obs::Recorder* metrics = nullptr;

  /// Trace sink.  When set, the drivers emit per-stage spans (index build,
  /// frequency summaries, probes, filter/verify stages) for Chrome trace-event
  /// output.  Span collection allocates; it is a debugging mode and is not
  /// covered by the steady-state zero-allocation guarantee.
  obs::TraceRecorder* trace = nullptr;

  /// Progress callback, invoked on the calling thread every 64 folded
  /// probes and at the end (self-join).  A plain function pointer plus
  /// context pointer — not std::function — so copying JoinOptions never
  /// allocates.
  void (*progress_fn)(const JoinProgress&, void* user) = nullptr;
  void* progress_user = nullptr;

  /// Convenience constructors for the paper's named variants.
  static JoinOptions Qfct(int k, double tau, int q = 3) {
    JoinOptions o;
    o.k = k;
    o.tau = tau;
    o.q = q;
    return o;
  }
  static JoinOptions Qct(int k, double tau, int q = 3) {
    JoinOptions o = Qfct(k, tau, q);
    o.use_freq_filter = false;
    return o;
  }
  static JoinOptions Qft(int k, double tau, int q = 3) {
    JoinOptions o = Qfct(k, tau, q);
    o.use_cdf_filter = false;
    return o;
  }
  static JoinOptions Fct(int k, double tau, int q = 3) {
    JoinOptions o = Qfct(k, tau, q);
    o.use_qgram_filter = false;
    return o;
  }
};

}  // namespace ujoin

#endif  // UJOIN_JOIN_JOIN_OPTIONS_H_
