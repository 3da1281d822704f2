#ifndef UJOIN_VERIFY_COMPRESSED_VERIFIER_H_
#define UJOIN_VERIFY_COMPRESSED_VERIFIER_H_

#include "text/uncertain_string.h"
#include "util/status.h"
#include "verify/compressed_trie.h"
#include "verify/verifier.h"

namespace ujoin {

/// \brief Trie-based verification over the path-compressed instance trie.
///
/// Functionally identical to TrieVerifier (exact Pr(ed(R,S) <= k) and
/// τ-decided verdicts) but with a node budget independent of string length,
/// extending exact verification to long strings whose plain instance trie
/// would not fit (see CompressedInstanceTrie).  The same walker
/// (verify/trie_walk.h) runs the active-node DP over *virtual* positions,
/// a prefix depth inside one node's label, ordered by (depth, node).
class CompressedTrieVerifier {
 public:
  /// Builds the compressed T_R; fails when it exceeds
  /// options.max_trie_nodes nodes.
  static Result<CompressedTrieVerifier> Create(
      const UncertainString& r, int k, const VerifyOptions& options = {});

  /// Exact Pr(ed(R, S) <= k).
  double Probability(const UncertainString& s,
                     VerifyStats* stats = nullptr) const;

  /// Threshold-decided verification with early termination (see
  /// TrieVerifier::DecideSimilar).
  ThresholdVerdict DecideSimilar(const UncertainString& s, double tau,
                                 VerifyStats* stats = nullptr) const;

  const CompressedInstanceTrie& trie() const { return trie_; }
  int k() const { return k_; }

 private:
  CompressedTrieVerifier(CompressedInstanceTrie trie, int k)
      : trie_(std::move(trie)), k_(k) {}

  CompressedInstanceTrie trie_;
  int k_;
};

/// One-shot compressed-trie verification of a single pair.
Result<double> CompressedTrieVerifyProbability(const UncertainString& r,
                                               const UncertainString& s, int k,
                                               const VerifyOptions& options = {},
                                               VerifyStats* stats = nullptr);

}  // namespace ujoin

#endif  // UJOIN_VERIFY_COMPRESSED_VERIFIER_H_
