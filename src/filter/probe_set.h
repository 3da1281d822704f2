#ifndef UJOIN_FILTER_PROBE_SET_H_
#define UJOIN_FILTER_PROBE_SET_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "filter/partition.h"
#include "filter/selection.h"
#include "text/uncertain_string.h"
#include "util/status.h"

namespace ujoin {

/// \brief An element of the equivalent deterministic probe set q(r, x):
/// a distinct deterministic substring together with the probability that it
/// occurs at one or more admissible start positions of R.
struct ProbeSubstring {
  std::string text;
  double prob;
};

/// \brief One occurrence of a deterministic substring inside R.
struct ProbeOccurrence {
  int start;    // 0-based start position in R
  double prob;  // Pr(w = R[start .. start+|w|-1])
};

/// \brief Knobs for probe-set construction.
struct ProbeSetOptions {
  /// Cap on the possible instances enumerated per substring window; guards
  /// against pathological uncertainty blow-up (|q(r,x)| grows like γ^(θq)).
  int64_t max_instances_per_window = 1 << 14;

  /// Substring selection window (see SelectionPolicy).  The shift-bounded
  /// window probes at most k+1 starts per segment against the positional
  /// window's 2k+1, with the same completeness (DESIGN.md Finding 1).
  SelectionPolicy selection = SelectionPolicy::kShiftBounded;

  /// When true, union probabilities over overlapping occurrences are computed
  /// exactly by enumerating the worlds of the covering region instead of the
  /// paper's overlap-grouping recursion (Section 3.2 Steps 1-2).  Exact mode
  /// falls back to the recursion when the region has too many worlds.
  bool exact_union_probability = false;
};

/// \brief The probe sets q(r, x) of all m segments of one length bucket in
/// one flat, allocation-free-to-read layout.
///
/// Substring texts are appended to a shared character pool; entries carry
/// (offset, length, prob), and each segment is a range of entries.  All
/// buffers grow but never shrink, so a workspace-owned instance reaches a
/// steady state after which repeated queries allocate nothing.
class FlatProbeSets {
 public:
  struct Entry {
    uint32_t offset;  // into pool()
    uint32_t length;
    double prob;
  };

  /// Starts a fresh build for `num_segments` segments; keeps capacity.
  void Reset(int num_segments) {
    pool_.clear();
    entries_.clear();
    segments_.clear();
    num_segments_ = num_segments;
  }

  /// Appends one probe substring to the segment currently under
  /// construction (between Reset/FinishSegment calls).
  void Append(std::string_view text, double prob) {
    const uint32_t offset = static_cast<uint32_t>(pool_.size());
    pool_.append(text);
    entries_.push_back(Entry{offset, static_cast<uint32_t>(text.size()), prob});
  }

  /// Discards entries appended for the current segment beyond `entries`
  /// (used to roll back a segment whose construction failed mid-way).
  void RollBackTo(size_t num_entries, size_t pool_size) {
    entries_.resize(num_entries);
    pool_.resize(pool_size);
  }

  /// Closes the current segment: the entries appended since the previous
  /// segment was closed, or none for a wildcard (probe-set construction
  /// blew up; it matches every indexed id with α = 1).  Must be called
  /// exactly num_segments times after a Reset.
  void FinishSegment(bool wildcard) {
    const uint32_t begin = segments_.empty() ? 0 : segments_.back().end;
    segments_.push_back(
        SegmentRange{begin, static_cast<uint32_t>(entries_.size()), wildcard});
  }

  int num_segments() const { return num_segments_; }
  bool is_wildcard(int x) const {
    return segments_[static_cast<size_t>(x)].wildcard;
  }
  std::span<const Entry> segment_entries(int x) const {
    const SegmentRange& range = segments_[static_cast<size_t>(x)];
    return {entries_.data() + range.begin, entries_.data() + range.end};
  }
  std::string_view text(const Entry& e) const {
    return {pool_.data() + e.offset, e.length};
  }
  size_t num_entries() const { return entries_.size(); }
  size_t pool_size() const { return pool_.size(); }

 private:
  // One closed segment: the entries [begin, end).
  struct SegmentRange {
    uint32_t begin;
    uint32_t end;
    bool wildcard;
  };

  std::string pool_;
  std::vector<Entry> entries_;
  std::vector<SegmentRange> segments_;  // closed segments, in order
  int num_segments_ = 0;
};

/// \brief Grow-only scratch buffers for BuildProbeSetInto.
///
/// One instance per worker thread; buffers are reused across calls so
/// steady-state probe-set construction performs no heap allocation (with
/// the default options — exact_union_probability still enumerates covering
/// regions through the allocating path).
struct ProbeSetScratch {
  struct RawOccurrence {
    uint64_t prefix;       // first 8 text bytes, big-endian, zero-padded
    uint32_t text_offset;  // into text_pool, fixed stride per call
    int start;
    double prob;
  };
  std::string text_pool;                 // enumerated instance texts
  std::vector<RawOccurrence> occurrences;  // sorted by (text, start)
  std::vector<ProbeOccurrence> group;    // one text's occurrence run
  std::vector<int> starts;               // exact-union mode only
  // Window world enumeration (odometer over uncertain positions).
  std::vector<int> uncertain_positions;
  std::vector<int> choice;
  std::string instance;
};

/// Union probability that `w` occurs at at least one of `occurrences` in R,
/// computed with the paper's two-step overlap grouping (Section 3.2):
/// occurrences are grouped into maximal overlapping runs, each run's
/// probability follows the β-recursion
///   β_j = β_{j-1} + Pr(w at ps_j) - Pr(w[0..ov-1] = R[y..z]),
/// and runs combine independently as 1 - Π(1 - p(g_i)).  Occurrences must be
/// sorted by start position.
double GroupedOccurrenceProbability(const UncertainString& r,
                                    std::string_view w,
                                    std::span<const ProbeOccurrence> occurrences);

/// Exact union probability that `w` occurs at at least one of `starts` in R,
/// by enumerating the possible worlds of the covering region.  Fails with
/// ResourceExhausted when the region exceeds `max_worlds` worlds.
Result<double> ExactOccurrenceProbability(const UncertainString& r,
                                          std::string_view w,
                                          std::span<const int> starts,
                                          int64_t max_worlds = 1 << 20);

/// Builds the equivalent deterministic probe set q(r, x) for segment `seg`
/// of an indexed string of length `s_len` (Sections 3.1–3.2): enumerates the
/// instances of every admissible uncertain substring of R (the selection
/// window of `options.selection`), merges duplicate instances across start
/// positions, and assigns each distinct substring its union occurrence
/// probability.
///
/// Entries are sorted by substring text; probabilities lie in (0, 1].
Result<std::vector<ProbeSubstring>> BuildProbeSet(
    const UncertainString& r, int s_len, const Segment& seg, int k,
    const ProbeSetOptions& options = {});

/// Workspace variant of BuildProbeSet: appends the probe set for `seg` as
/// one finished segment of `out` (callers Reset `out` once per query and
/// call this for every segment in order).  On blow-up the segment is closed
/// as a wildcard with no entries and the error is returned; `out` stays
/// consistent either way.  Produces entries identical to BuildProbeSet —
/// same texts, same order, bit-identical probabilities.
Status BuildProbeSetInto(const UncertainString& r, int s_len,
                         const Segment& seg, int k,
                         const ProbeSetOptions& options,
                         ProbeSetScratch* scratch, FlatProbeSets* out);

}  // namespace ujoin

#endif  // UJOIN_FILTER_PROBE_SET_H_
