#ifndef UJOIN_VERIFY_INSTANCE_TRIE_H_
#define UJOIN_VERIFY_INSTANCE_TRIE_H_

#include <cstdint>
#include <vector>

#include "text/uncertain_string.h"
#include "util/status.h"

namespace ujoin {

/// \brief Trie of all possible instances of an uncertain string
/// (Section 6.2's T_R), with per-node prefix probabilities.
///
/// Because a character-level uncertain string has fixed length, the trie is
/// levelled: nodes at depth d correspond to instances of the prefix
/// S[0..d-1], and every leaf sits at depth |S|.  A node's probability is the
/// product of the alternative probabilities along its path, i.e. the total
/// probability of all worlds sharing that prefix; leaf probabilities sum
/// to 1.
///
/// Nodes are stored in BFS order, so ids ascend by depth, a node's id is
/// larger than its parent's, parent ids are nondecreasing in node id, and
/// each node's children occupy a contiguous id range, ranges following
/// their parents' order — the properties the verifier's linear active-set
/// merge relies on (verify/trie_walk.h).
class InstanceTrie {
 public:
  struct Node {
    char symbol;       ///< edge label from the parent (0 for the root)
    int32_t parent;    ///< parent id (-1 for the root)
    int32_t depth;     ///< distance from the root
    int32_t first_child;   ///< id of the first child (0 when childless)
    int32_t num_children;  ///< children occupy [first_child, first_child+n)
    double prob;       ///< probability of this prefix
  };

  /// Materializes the trie; fails with ResourceExhausted when it would
  /// exceed `max_nodes` nodes.
  static Result<InstanceTrie> Build(const UncertainString& s,
                                    int64_t max_nodes = 1 << 22);

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  const Node& node(int32_t id) const { return nodes_[static_cast<size_t>(id)]; }
  int32_t root() const { return 0; }
  int depth() const { return depth_; }  ///< string length = leaf depth

  bool IsLeaf(int32_t id) const { return node(id).depth == depth_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const { return nodes_.capacity() * sizeof(Node); }

 private:
  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace ujoin

#endif  // UJOIN_VERIFY_INSTANCE_TRIE_H_
