#include "verify/compressed_verifier.h"

#include <cstdint>
#include <utility>

#include "util/check.h"
#include "verify/trie_walk.h"

namespace ujoin {

namespace {

/// CompressedInstanceTrie as a TrieWalker view over *virtual* positions:
/// the prefix of depth d that ends inside node n's label is keyed
/// (d << 32) | n, and ε is (0, root).  Every depth d >= 1 lies inside the
/// label of one level, so the positions of a depth are that level's nodes
/// in id order.  Ordered by (depth, node), parents and children are then
/// monotone exactly as in the plain BFS-numbered trie, and the full
/// instances, all at the last depth, come in node order.
class CompressedTrieView {
 public:
  using Key = int64_t;

  explicit CompressedTrieView(const CompressedInstanceTrie& trie)
      : trie_(trie) {}

  Key Root() const { return Pack(0, trie_.root()); }

  // Inside a label (or the root's) the parent is the previous character of
  // the same node; at a label's first character it is the parent node's
  // last one.
  Key Parent(Key v) const {
    const int depth = Depth(v);
    const int32_t node = Node(v);
    const bool label_start = depth == trie_.StartDepth(node) + 1;
    return Pack(depth - 1, label_start && node != trie_.root()
                               ? trie_.node(node).parent
                               : node);
  }

  char Symbol(Key v) const {
    const int32_t node = Node(v);
    return trie_.LabelChar(node, Depth(v) - trie_.StartDepth(node) - 1);
  }

  std::pair<Key, Key> Children(Key v) const {
    const int depth = Depth(v);
    const int32_t node = Node(v);
    if (depth < trie_.EndDepth(node)) {
      return {Pack(depth + 1, node), Pack(depth + 1, node + 1)};
    }
    const CompressedInstanceTrie::Node& n = trie_.node(node);
    return {Pack(depth + 1, n.first_child),
            Pack(depth + 1, n.first_child + n.num_children)};
  }

  // Every position at the last depth ends a leaf node's label.
  bool IsLeaf(Key v) const { return Depth(v) == trie_.depth(); }
  double Prob(Key v) const { return trie_.node(Node(v)).prob; }
  static int Depth(Key v) { return static_cast<int>(v >> 32); }
  int InstanceLength() const { return trie_.depth(); }

 private:
  static Key Pack(int depth, int32_t node) {
    return (static_cast<Key>(depth) << 32) | static_cast<Key>(node);
  }
  static int32_t Node(Key v) { return static_cast<int32_t>(v & 0xffffffff); }

  const CompressedInstanceTrie& trie_;
};

using CompressedTrieWalker = internal::TrieWalker<CompressedTrieView>;

}  // namespace

Result<CompressedTrieVerifier> CompressedTrieVerifier::Create(
    const UncertainString& r, int k, const VerifyOptions& options) {
  UJOIN_CHECK(k >= 0);
  Result<CompressedInstanceTrie> trie =
      CompressedInstanceTrie::Build(r, options.max_trie_nodes);
  if (!trie.ok()) return trie.status();
  return CompressedTrieVerifier(std::move(trie).value(), k);
}

double CompressedTrieVerifier::Probability(const UncertainString& s,
                                           VerifyStats* stats) const {
  if (stats != nullptr) stats->r_trie_nodes += trie_.num_nodes();
  return CompressedTrieWalker(CompressedTrieView(trie_), s, k_, stats).Run();
}

ThresholdVerdict CompressedTrieVerifier::DecideSimilar(
    const UncertainString& s, double tau, VerifyStats* stats) const {
  UJOIN_CHECK(tau >= 0.0 && tau <= 1.0);
  if (stats != nullptr) stats->r_trie_nodes += trie_.num_nodes();
  return CompressedTrieWalker(CompressedTrieView(trie_), s, k_, stats, tau)
      .Decide();
}

Result<double> CompressedTrieVerifyProbability(const UncertainString& r,
                                               const UncertainString& s, int k,
                                               const VerifyOptions& options,
                                               VerifyStats* stats) {
  Result<CompressedTrieVerifier> verifier =
      CompressedTrieVerifier::Create(r, k, options);
  if (!verifier.ok()) return verifier.status();
  return verifier->Probability(s, stats);
}

}  // namespace ujoin
