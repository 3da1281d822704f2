#include "verify/verifier.h"

#include <utility>

#include "text/edit_distance.h"
#include "text/possible_worlds.h"
#include "util/check.h"
#include "util/math_util.h"
#include "verify/compressed_verifier.h"
#include "verify/trie_walk.h"

namespace ujoin {

namespace {

/// InstanceTrie as a TrieWalker view: positions are the trie's BFS ids.
class PlainTrieView {
 public:
  using Key = int32_t;

  explicit PlainTrieView(const InstanceTrie& trie) : trie_(trie) {}

  Key Root() const { return trie_.root(); }
  Key Parent(Key v) const { return trie_.node(v).parent; }
  char Symbol(Key v) const { return trie_.node(v).symbol; }
  std::pair<Key, Key> Children(Key v) const {
    const InstanceTrie::Node& node = trie_.node(v);
    return {node.first_child, node.first_child + node.num_children};
  }
  bool IsLeaf(Key v) const { return trie_.IsLeaf(v); }
  double Prob(Key v) const { return trie_.node(v).prob; }
  int Depth(Key v) const { return trie_.node(v).depth; }
  int InstanceLength() const { return trie_.depth(); }

 private:
  const InstanceTrie& trie_;
};

using TrieWalker = internal::TrieWalker<PlainTrieView>;

}  // namespace

Result<TrieVerifier> TrieVerifier::Create(const UncertainString& r, int k,
                                          const VerifyOptions& options) {
  UJOIN_CHECK(k >= 0);
  Result<InstanceTrie> trie = InstanceTrie::Build(r, options.max_trie_nodes);
  if (!trie.ok()) return trie.status();
  return TrieVerifier(std::move(trie).value(), k);
}

double TrieVerifier::Probability(const UncertainString& s,
                                 VerifyStats* stats) const {
  if (stats != nullptr) stats->r_trie_nodes += trie_.num_nodes();
  return TrieWalker(PlainTrieView(trie_), s, k_, stats).Run();
}

ThresholdVerdict TrieVerifier::DecideSimilar(const UncertainString& s,
                                             double tau,
                                             VerifyStats* stats) const {
  UJOIN_CHECK(tau >= 0.0 && tau <= 1.0);
  if (stats != nullptr) stats->r_trie_nodes += trie_.num_nodes();
  return TrieWalker(PlainTrieView(trie_), s, k_, stats, tau).Decide();
}

Result<double> TrieVerifyProbability(const UncertainString& r,
                                     const UncertainString& s, int k,
                                     const VerifyOptions& options,
                                     VerifyStats* stats) {
  Result<TrieVerifier> verifier = TrieVerifier::Create(r, k, options);
  if (!verifier.ok()) return verifier.status();
  return verifier->Probability(s, stats);
}

Result<double> VerifyPairProbability(const UncertainString& r,
                                     const UncertainString& s, int k,
                                     const VerifyOptions& options,
                                     VerifyStats* stats) {
  // A string's trie has at most WorldCount() nodes per level; prefer the
  // side with fewer worlds as the materialized T_R.
  const UncertainString* first = &r;
  const UncertainString* second = &s;
  if (s.WorldCount() < r.WorldCount()) std::swap(first, second);
  Result<double> out = TrieVerifyProbability(*first, *second, k, options, stats);
  if (out.ok()) return out;
  out = TrieVerifyProbability(*second, *first, k, options, stats);
  if (out.ok()) return out;
  // The plain tries overflowed: the path-compressed trie's node budget is
  // independent of string length and usually still fits.
  out = CompressedTrieVerifyProbability(*first, *second, k, options, stats);
  if (out.ok()) return out;
  out = CompressedTrieVerifyProbability(*second, *first, k, options, stats);
  if (out.ok()) return out;
  return NaiveVerifyProbability(r, s, k, options, stats);
}

Result<double> NaiveVerifyProbability(const UncertainString& r,
                                      const UncertainString& s, int k,
                                      const VerifyOptions& options,
                                      VerifyStats* stats) {
  UJOIN_CHECK(k >= 0);
  const int64_t pairs = SaturatingMul(r.WorldCount(), s.WorldCount());
  if (pairs > options.max_world_pairs) {
    return Status::ResourceExhausted(
        "naive verification over " + std::to_string(pairs) +
        " world pairs exceeds the cap of " +
        std::to_string(options.max_world_pairs));
  }
  double total = 0.0;
  ForEachWorld(r, [&](const std::string& ri, double pi) {
    ForEachWorld(s, [&](const std::string& sj, double pj) {
      if (stats != nullptr) ++stats->world_pairs;
      if (BoundedEditDistance(ri, sj, k) <= k) total += pi * pj;
    });
  });
  return ClampProb(total);
}

int64_t PairWorldCount(const UncertainString& r, const UncertainString& s) {
  return SaturatingMul(r.WorldCount(), s.WorldCount());
}

bool ExceedsWorldBudget(int64_t pair_world_count, int64_t budget) {
  return budget > 0 && pair_world_count > budget;
}

}  // namespace ujoin
