#ifndef UJOIN_JOIN_CROSS_JOIN_H_
#define UJOIN_JOIN_CROSS_JOIN_H_

#include "join/self_join.h"

namespace ujoin {

/// \brief Result of a two-collection join: pairs (lhs, rhs) where `lhs`
/// indexes the left collection and `rhs` the right one (no ordering
/// relation between the two indices, unlike SelfJoinResult).
struct CrossJoinResult {
  std::vector<JoinPair> pairs;  // sorted by (lhs, rhs)
  JoinStats stats;
};

/// General similarity join between two collections (the paper's problem
/// statement before its WLOG reduction to the self-join): all pairs
/// (R, S) ∈ left × right with Pr(ed(R, S) <= k) > τ.
///
/// The smaller collection is indexed once by SimilaritySearcher::Create and
/// the other collection's strings probe it through SearchMany, whose
/// queries run the same filter-and-verify cascade as the self-join
/// (join/probe_cascade.h).  The two drivers share that cascade and the
/// ordered pool (join/ordered_pool.h) but not candidate generation, so
/// self_cross_differential_test.cc can check one against the other;
/// ExhaustiveSelfJoin stays the independent, filter-free reference.
Result<CrossJoinResult> SimilarityJoin(
    const std::vector<UncertainString>& left,
    const std::vector<UncertainString>& right, const Alphabet& alphabet,
    const JoinOptions& options);

}  // namespace ujoin

#endif  // UJOIN_JOIN_CROSS_JOIN_H_
