#ifndef UJOIN_FILTER_SELECTION_H_
#define UJOIN_FILTER_SELECTION_H_

#include "filter/partition.h"

namespace ujoin {

/// \brief Inclusive range of 0-based start positions in the probe string r
/// whose substrings must be tested against a segment (empty when lo > hi).
struct SelectionWindow {
  int lo;
  int hi;

  bool empty() const { return lo > hi; }
  int size() const { return empty() ? 0 : hi - lo + 1; }
};

/// \brief Position-aware substring selection policy (Section 2.1).
///
/// Both policies are *complete*: any segment preserved by an alignment of
/// cost <= k starts within the window, so Lemmas 1–5 hold under either.
/// ProbeSetOptions::selection picks one; it defaults to kShiftBounded.
enum class SelectionPolicy {
  /// Starts within [pos(seg) - k, pos(seg) + k] (at most 2k+1 of them).
  /// This is the window the paper's worked examples use (Table 1 and the
  /// Section 3.2 example); tests reproducing them select it by name.
  kPositional,
  /// The paper's shift-bounded window: admissible segment shifts d satisfy
  /// |d| + |Δ - d| <= k with Δ = |r| - |s|, giving the formula
  /// [pos - ⌊(k-Δ)/2⌋, pos + ⌊(k+Δ)/2⌋] with at most k+1 starts.  Fewer
  /// probes, contained in kPositional's window.
  kShiftBounded,
};

/// Start positions in a probe string of length `r_len` whose length-
/// `seg.length` substrings must be tested against segment `seg` of an
/// indexed string of length `s_len` under `policy`, intersected with the
/// valid substring range.  Returns an empty window when
/// ||r_len - s_len|| > k.
SelectionWindow SelectSubstringWindow(int r_len, int s_len, const Segment& seg,
                                      int k, SelectionPolicy policy);

}  // namespace ujoin

#endif  // UJOIN_FILTER_SELECTION_H_
