#ifndef UJOIN_JOIN_SELF_JOIN_H_
#define UJOIN_JOIN_SELF_JOIN_H_

#include <cstdint>
#include <vector>

#include "join/join_options.h"
#include "join/join_stats.h"
#include "text/alphabet.h"
#include "text/uncertain_string.h"
#include "util/status.h"

namespace ujoin {

/// \brief One similar pair reported by the join.
///
/// Indices refer to the input collection and satisfy lhs < rhs.  When
/// `exact` is true, `probability` is the exact Pr(ed(R,S) <= k); otherwise
/// the pair was accepted by the CDF lower bound without verification, or
/// its verification stopped once the (k, τ) verdict was certain, and
/// `probability` is a certified lower bound (still > τ).  Set
/// JoinOptions::always_verify to force exact probabilities everywhere.
struct JoinPair {
  uint32_t lhs;
  uint32_t rhs;
  double probability;
  bool exact;

  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    return a.lhs != b.lhs ? a.lhs < b.lhs : a.rhs < b.rhs;
  }
};

/// \brief Join output: the similar pairs plus per-stage statistics.
struct SelfJoinResult {
  std::vector<JoinPair> pairs;  // sorted by (lhs, rhs)
  JoinStats stats;
};

/// Similarity self-join (Problem definition, Section 1): finds all pairs
/// (R, S), R != S, of `collection` with Pr(ed(R, S) <= k) > τ.
///
/// Implements the paper's pipeline: strings are visited in ascending length
/// order; each string queries the inverted segment index of previously
/// visited strings (q-gram filtering with probabilistic pruning), survivors
/// pass through frequency-distance filtering and CDF-bound filtering, and
/// undecided pairs are decided by the trie-based verifier (to their (k, τ)
/// verdict, or to the exact probability under JoinOptions::always_verify).
/// Filter stages toggle via JoinOptions to form the QFCT/QCT/QFT/FCT
/// variants of Section 7.
///
/// The scan is one length-gated pass: the calling thread inserts the
/// strings in visiting order and releases each length group's probes, once
/// the group is indexed, to JoinOptions::threads workers; each probe sees
/// only strings of smaller visiting position.  Results, filter decisions,
/// and every counter are identical to the paper's sequential scan for every
/// thread count (probe outcomes are folded in visiting order; see
/// DESIGN.md, "Parallel self-join").
///
/// Fails with InvalidArgument when a string is empty or uses symbols
/// outside `alphabet`.
Result<SelfJoinResult> SimilaritySelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options);

/// Ground-truth join used by tests and as the "no filtering" reference:
/// verifies every length-compatible pair exactly.
Result<SelfJoinResult> ExhaustiveSelfJoin(
    const std::vector<UncertainString>& collection, const Alphabet& alphabet,
    const JoinOptions& options);

}  // namespace ujoin

#endif  // UJOIN_JOIN_SELF_JOIN_H_
