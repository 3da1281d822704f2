#ifndef UJOIN_JOIN_STRING_LEVEL_JOIN_H_
#define UJOIN_JOIN_STRING_LEVEL_JOIN_H_

#include <cstdint>
#include <vector>

#include "join/self_join.h"
#include "text/alphabet.h"
#include "text/string_level.h"

namespace ujoin {

/// \brief Options for the string-level self-join.
struct StringLevelJoinOptions {
  int k = 2;
  double tau = 0.1;
};

/// Self-join over string-level uncertain strings: all pairs with
/// Pr(ed(A, B) <= k) > τ under the explicit-pdf model.
///
/// Filtering pipeline (the character-level machinery adapted to explicit
/// pdfs):
///   1. length filter — instance length ranges must come within k,
///   2. frequency-distance lower bound over per-symbol [min, max] count
///      envelopes (the Lemma 6 idea applied to the instance set),
///   3. verification over instance pairs, stopped once the (k, τ) verdict
///      is certain (a pair's probability may be a certified lower bound,
///      flagged inexact).
Result<SelfJoinResult> StringLevelSelfJoin(
    const std::vector<StringLevelUncertainString>& collection,
    const Alphabet& alphabet, const StringLevelJoinOptions& options);

/// Lemma-6-style lower bound on fd(A, B) valid in every world pair, from
/// per-symbol minimum/maximum occurrence counts across instances.
int StringLevelFreqDistanceLowerBound(
    const std::vector<int>& a_min_counts, const std::vector<int>& a_max_counts,
    const std::vector<int>& b_min_counts, const std::vector<int>& b_max_counts);

}  // namespace ujoin

#endif  // UJOIN_JOIN_STRING_LEVEL_JOIN_H_
