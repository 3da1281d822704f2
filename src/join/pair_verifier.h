#ifndef UJOIN_JOIN_PAIR_VERIFIER_H_
#define UJOIN_JOIN_PAIR_VERIFIER_H_

#include <optional>

#include "join/join_options.h"
#include "text/uncertain_string.h"
#include "util/status.h"
#include "verify/compressed_verifier.h"
#include "verify/verifier.h"

namespace ujoin::internal {

/// \brief Verification front-end for one probe string R, shared by the
/// self-join and search drivers.
///
/// One fixed chain: R's plain trie, built once per probe and reused for
/// every candidate (the Section 6.2 amortization); R's compressed trie,
/// also built once, when the plain one exceeds VerifyOptions::max_trie_nodes
/// (its node budget does not grow with string length); and, when both
/// overflow, VerifyPairProbability per pair (cheaper-side trie, compressed
/// trie, naive enumeration).
class PairVerifier {
 public:
  PairVerifier(const UncertainString& r, const JoinOptions& options)
      : r_(r), options_(options) {}

  /// Exact Pr(ed(R, s) <= k).
  Result<double> Probability(const UncertainString& s, VerifyStats* stats) {
    EnsureVerifier();
    if (trie_.has_value()) return trie_->Probability(s, stats);
    if (compressed_.has_value()) return compressed_->Probability(s, stats);
    return VerifyPairProbability(r_, s, options_.k, options_.verify, stats);
  }

  /// The (k, τ) verdict, whose walk stops as soon as the verdict is
  /// certain; the exact probability when JoinOptions::always_verify is set
  /// or neither of R's tries fits.
  Result<ThresholdVerdict> Decide(const UncertainString& s, double tau,
                                  VerifyStats* stats) {
    if (!options_.always_verify) {
      EnsureVerifier();
      if (trie_.has_value()) return trie_->DecideSimilar(s, tau, stats);
      if (compressed_.has_value()) {
        return compressed_->DecideSimilar(s, tau, stats);
      }
    }
    Result<double> prob = Probability(s, stats);
    if (!prob.ok()) return prob.status();
    return ThresholdVerdict{prob.value() > tau, prob.value(), prob.value(),
                            true};
  }

 private:
  void EnsureVerifier() {
    if (built_) return;
    built_ = true;  // don't retry a blown-up trie per candidate
    Result<TrieVerifier> trie =
        TrieVerifier::Create(r_, options_.k, options_.verify);
    if (trie.ok()) {
      trie_.emplace(std::move(trie).value());
      return;
    }
    Result<CompressedTrieVerifier> compressed =
        CompressedTrieVerifier::Create(r_, options_.k, options_.verify);
    if (compressed.ok()) compressed_.emplace(std::move(compressed).value());
  }

  const UncertainString& r_;
  const JoinOptions& options_;
  std::optional<TrieVerifier> trie_;
  std::optional<CompressedTrieVerifier> compressed_;
  bool built_ = false;
};

}  // namespace ujoin::internal

#endif  // UJOIN_JOIN_PAIR_VERIFIER_H_
