#ifndef UJOIN_VERIFY_COMPRESSED_TRIE_H_
#define UJOIN_VERIFY_COMPRESSED_TRIE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/uncertain_string.h"
#include "util/status.h"

namespace ujoin {

/// \brief Path-compressed trie of all possible instances of an uncertain
/// string — an engineering improvement over InstanceTrie in the direction
/// of the paper's future-work note on trie-based verification.
///
/// A plain instance trie replicates every deterministic run of the string
/// once per world, so a string with u uncertain positions and length l
/// needs Θ(worlds · l) nodes.  Here branching happens only at uncertain
/// positions: a node at level i >= 1 represents one alternative of the i-th
/// uncertain position, and its *label* is that branching character followed
/// by the maximal certain run up to the next uncertain position.  Because
/// every node of a level shares the same run, the run text is stored once
/// per level.  Node count drops to the number of distinct choice prefixes,
/// Σ_i Π_{j<=i} γ_j <= 2 · worlds — independent of the string length —
/// which is what lets verification handle long strings (e.g. the ×4
/// self-append workload of Figure 9) that overflow the plain trie.
///
/// Nodes are stored level by level: a node's id is larger than its
/// parent's, parent ids are nondecreasing in node id, and children occupy
/// contiguous id ranges in their parents' order.
class CompressedInstanceTrie {
 public:
  struct Node {
    int32_t parent;        ///< parent id (-1 for the root)
    int32_t first_child;   ///< id of the first child (0 when childless)
    int32_t num_children;  ///< children occupy [first_child, first_child+n)
    int32_t level;         ///< 0 for the root, i for the i-th uncertain pos
    char branch_char;      ///< the alternative chosen (unused at the root)
    double prob;           ///< probability of the prefix ending at this node
  };

  /// Materializes the compressed trie; fails with ResourceExhausted when it
  /// would exceed `max_nodes` nodes.
  static Result<CompressedInstanceTrie> Build(const UncertainString& s,
                                              int64_t max_nodes = 1 << 22);

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  const Node& node(int32_t id) const { return nodes_[static_cast<size_t>(id)]; }
  int32_t root() const { return 0; }
  int depth() const { return depth_; }  ///< string length

  /// Length of node `id`'s label: branching char (levels >= 1) plus the
  /// level's shared certain run.  The root's label may be empty.
  int LabelLength(int32_t id) const {
    const Node& n = node(id);
    return (n.level > 0 ? 1 : 0) + RunLength(n.level);
  }

  /// Character at offset `off` (0-based) of node `id`'s label.
  char LabelChar(int32_t id, int off) const {
    const Node& n = node(id);
    if (n.level > 0) {
      if (off == 0) return n.branch_char;
      --off;
    }
    return runs_[static_cast<size_t>(run_begin_[static_cast<size_t>(n.level)] +
                                     off)];
  }

  /// Depth (0-based string position) of the first label character.
  int StartDepth(int32_t id) const {
    return level_start_depth_[static_cast<size_t>(node(id).level)];
  }

  /// Depth one past the last label character (= depth() for leaf levels).
  int EndDepth(int32_t id) const { return StartDepth(id) + LabelLength(id); }

  /// True when `id` terminates a full instance (deepest level).
  bool IsLeafNode(int32_t id) const { return node(id).num_children == 0; }

  /// Approximate heap footprint in bytes.
  size_t MemoryUsage() const {
    return nodes_.capacity() * sizeof(Node) + runs_.capacity() +
           run_begin_.capacity() * sizeof(int32_t) +
           level_start_depth_.capacity() * sizeof(int32_t);
  }

 private:
  int RunLength(int32_t level) const {
    return run_begin_[static_cast<size_t>(level) + 1] -
           run_begin_[static_cast<size_t>(level)];
  }

  std::vector<Node> nodes_;
  std::string runs_;                     // concatenated per-level runs
  std::vector<int32_t> run_begin_;       // level -> offset into runs_
  std::vector<int32_t> level_start_depth_;  // level -> depth of label start
  int depth_ = 0;
};

}  // namespace ujoin

#endif  // UJOIN_VERIFY_COMPRESSED_TRIE_H_
