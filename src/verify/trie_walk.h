#ifndef UJOIN_VERIFY_TRIE_WALK_H_
#define UJOIN_VERIFY_TRIE_WALK_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <tuple>
#include <vector>

#include "text/uncertain_string.h"
#include "util/check.h"
#include "util/math_util.h"
#include "verify/verifier.h"

namespace ujoin::internal {

/// \brief Walks the on-demand trie of S against a fixed materialized T_R
/// (Section 6.2), shared by TrieVerifier and CompressedTrieVerifier.
///
/// For each explored S prefix u the walk keeps the active set A(u) of T_R
/// positions v with D(u, v) <= k that lie inside the length band (below),
/// in ascending key order, and derives each child's set from its parent's
/// alone.  `Trie` is a view of T_R that numbers positions with an ordered
/// integer `Key`:
///
///   Key Root()                 the empty prefix ε
///   Key Parent(Key v)          for v != Root()
///   char Symbol(Key v)         label of the edge into v
///   std::pair<Key, Key> Children(Key v)   [lo, hi), empty for leaves
///   bool IsLeaf(Key v)         v spells a full instance of R
///   double Prob(Key v)         probability of v's prefix
///   int Depth(Key v)           length of v's prefix
///   int InstanceLength()       |R|, the depth of every full instance
///
/// Length band (PASS-JOIN's length-aware verification): the rest of any
/// alignment through the cell (u, v) costs at least the gap between the
/// remaining lengths, so (v, D) is admitted only when
/// D + |(|S| - |u|) - (|R| - depth(v))| <= k.  That sum never falls along an
/// alignment path, so every cell on a path of cost <= k passes the test
/// with its exact D, and a dropped cell never lowers a kept cell's D.  The
/// full instances with D <= k at |u| = |S| — the only entries that add to
/// the result — are therefore exactly those of the unbanded walk, in the
/// same order; a subtree whose set empties early contributes 0 either way.
///
/// The merge below relies on the view being numbered breadth-first over a
/// levelled trie: keys ascend by depth, Parent() is nondecreasing in the
/// key, and the children ranges of ascending positions are ascending and
/// disjoint.  Then every candidate stream of Extend() is sorted and every
/// lookup moves forward only.
///
/// With a threshold τ >= 0 the walk terminates early: `total_` only grows
/// and `resolved_` tracks the S-prefix mass whose contribution is final, so
/// total_ > τ certifies "similar" and total_ + (1 - resolved_) <= τ
/// certifies "not similar".
template <typename Trie>
class TrieWalker {
 public:
  TrieWalker(const Trie& trie, const UncertainString& s, int k,
             VerifyStats* stats, double tau = -1.0)
      : trie_(trie),
        s_(s),
        k_(k),
        tau_(tau),
        stats_(stats),
        s_len_(s.length()),
        r_len_(trie.InstanceLength()),
        sets_(static_cast<size_t>(s.length()) + 1) {}

  /// Walks to completion (or to the τ verdict) and returns the matching
  /// mass found: exact Pr(ed(R, S) <= k) when no τ was given.
  double Run() {
    // A(ε): every in-band position of depth <= k, at distance equal to its
    // depth.  Each depth's positions form one key range, the children of
    // the previous depth's range.
    ActiveSet& root = sets_[0];
    Key lo = trie_.Root();
    Key hi = lo + 1;
    for (int32_t d = 0; d <= k_ && lo < hi; ++d) {
      if (d <= Slack(0, d)) {
        for (Key v = lo; v < hi; ++v) root.push_back(Entry{v, d});
      }
      lo = trie_.Children(lo).first;
      hi = trie_.Children(hi - 1).second;
    }
    Recurse(0, 1.0);
    return ClampProb(total_);
  }

  /// Runs a walk constructed with τ >= 0 and returns its verdict, with
  /// certified bounds that coincide unless the walk skipped an alternative.
  ThresholdVerdict Decide() {
    Run();
    ThresholdVerdict verdict;
    verdict.lower = ClampProb(total_);
    verdict.exact = !skipped_;
    // A complete walk's total_ is the exact probability; 1 - resolved_ is
    // then only rounding slack.
    verdict.upper =
        verdict.exact ? verdict.lower : ClampProb(total_ + (1.0 - resolved_));
    verdict.similar = verdict.lower > tau_;
    UJOIN_DCHECK(verdict.similar || verdict.upper <= tau_ || verdict.exact);
    return verdict;
  }

 private:
  using Key = typename Trie::Key;

  struct Entry {
    Key key;
    int32_t dist;  // exact edit distance (<= k) from the current S prefix
  };

  // The largest distance the band admits at the cell (u, v) with |u| =
  // `u_len` and depth(v) = `v_depth`; negative when no distance is.
  int32_t Slack(int u_len, int v_depth) const {
    return k_ - std::abs(s_len_ - u_len - (r_len_ - v_depth));
  }

  using ActiveSet = std::vector<Entry>;  // ascending key

  // Walks the S prefixes below the current depth-`depth` prefix, whose
  // active set is sets_[depth].  Children reuse sets_[depth + 1]: siblings
  // overwrite it, and deeper levels never touch a shallower set.
  void Recurse(int depth, double prefix_prob) {
    const ActiveSet& active = sets_[static_cast<size_t>(depth)];
    if (stats_ != nullptr) {
      ++stats_->explored_s_nodes;
      stats_->active_entries += static_cast<int64_t>(active.size());
    }
    if (depth == s_.length()) {
      for (const Entry& e : active) {
        if (trie_.IsLeaf(e.key)) total_ += prefix_prob * trie_.Prob(e.key);
      }
      resolved_ += prefix_prob;
      MaybeStop();
      return;
    }
    ActiveSet& child = sets_[static_cast<size_t>(depth) + 1];
    for (const CharProb& cp : s_.AlternativesAt(depth)) {
      if (stopped_) {
        skipped_ = true;  // the only place the walk leaves work undone
        return;
      }
      const double child_prob = prefix_prob * cp.prob;
      Extend(active, cp.symbol, depth + 1, &child);
      if (child.empty()) {
        // Prefix pruning: the subtree contributes exactly 0.
        resolved_ += child_prob;
        MaybeStop();
        continue;
      }
      Recurse(depth + 1, child_prob);
    }
  }

  void MaybeStop() {
    if (tau_ < 0.0) return;
    if (total_ > tau_ || total_ + (1.0 - resolved_) <= tau_) stopped_ = true;
  }

  /// Writes A(u·c) from A(u) = `active` into `*out`.  D(u·c, v) is the
  /// edit-distance DP evaluated over trie paths: the minimum of
  ///   D(u, parent(v)) + [symbol(v) != c]   (match / substitute),
  ///   D(u, v) + 1                          (delete c),
  ///   D(u·c, parent(v)) + 1                (insert symbol(v)),
  /// and D(u·c, ε) = |u·c|.  A predecessor missing from its set counts as
  /// out of reach, and v is kept only when D(u·c, v) is within the band.
  ///
  /// A candidate is ε (when |u·c| <= k), a member of A(u), a child of one,
  /// or a child of a position already in A(u·c) (insertion chains).  These
  /// are three sorted streams, merged in ascending key order with
  /// duplicates dropped, so a position's parent is final before the
  /// position itself is decided and `next` comes out sorted.  The three
  /// lookups follow forward-only cursors: the candidate and its parent
  /// both ascend.
  void Extend(const ActiveSet& active, char c, int new_len, ActiveSet* out) {
    constexpr Key kDone = std::numeric_limits<Key>::max();
    ActiveSet& next = *out;
    next.clear();
    const Key root = trie_.Root();
    bool root_pending = new_len <= k_;
    size_t self = 0;         // stream 1 and the D(u, v) cursor into A(u)
    size_t kids_of = 0;      // stream 2: A(u) entries whose children are due
    Key kid = 0;
    Key kid_end = 0;
    size_t next_kids_of = 0;  // stream 3: the same over A(u·c)
    Key next_kid = 0;
    Key next_kid_end = 0;
    size_t up = 0;    // D(u, parent(v)) cursor into A(u)
    size_t left = 0;  // D(u·c, parent(v)) cursor into A(u·c)
    for (;;) {
      while (kid == kid_end && kids_of < active.size()) {
        std::tie(kid, kid_end) = trie_.Children(active[kids_of++].key);
      }
      while (next_kid == next_kid_end && next_kids_of < next.size()) {
        std::tie(next_kid, next_kid_end) =
            trie_.Children(next[next_kids_of++].key);
      }
      const Key v = std::min(
          {root_pending ? root
                        : (self < active.size() ? active[self].key : kDone),
           kid < kid_end ? kid : kDone,
           next_kid < next_kid_end ? next_kid : kDone});
      if (v == kDone) break;
      // Consume v from every stream that holds it.
      if (root_pending && v == root) root_pending = false;
      int32_t self_du = -1;
      if (self < active.size() && active[self].key == v) {
        self_du = active[self++].dist;
      }
      if (kid < kid_end && kid == v) ++kid;
      if (next_kid < next_kid_end && next_kid == v) ++next_kid;

      const int32_t slack = Slack(new_len, trie_.Depth(v));
      if (slack < 0) continue;  // out of band at any distance
      int32_t best;
      if (v == root) {
        best = static_cast<int32_t>(new_len);  // ed(u·c, ε) = |u·c|
      } else {
        const Key parent = trie_.Parent(v);
        best = k_ + 1;
        while (up < active.size() && active[up].key < parent) ++up;
        if (up < active.size() && active[up].key == parent) {
          const int32_t cost = trie_.Symbol(v) == c ? 0 : 1;
          best = std::min(best, active[up].dist + cost);  // diagonal
        }
        if (self_du >= 0) best = std::min(best, self_du + 1);  // delete c
        while (left < next.size() && next[left].key < parent) ++left;
        if (left < next.size() && next[left].key == parent) {
          best = std::min(best, next[left].dist + 1);  // insert symbol(v)
        }
      }
      if (best <= slack) next.push_back(Entry{v, best});
    }
  }

  const Trie trie_;  // a view: cheap to copy
  const UncertainString& s_;
  const int32_t k_;
  const double tau_;  // negative disables early termination
  VerifyStats* stats_;
  const int32_t s_len_;  // |S|
  const int32_t r_len_;  // |R|
  std::vector<ActiveSet> sets_;  // sets_[d]: A of the current depth-d prefix
  double total_ = 0.0;     // accumulated matching mass (only grows)
  double resolved_ = 0.0;  // S-prefix mass with a final contribution
  bool stopped_ = false;  // the verdict is certified; walk no further
  bool skipped_ = false;  // an alternative was left unwalked
};

}  // namespace ujoin::internal

#endif  // UJOIN_VERIFY_TRIE_WALK_H_
