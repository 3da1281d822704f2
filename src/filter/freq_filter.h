#ifndef UJOIN_FILTER_FREQ_FILTER_H_
#define UJOIN_FILTER_FREQ_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "text/alphabet.h"
#include "text/uncertain_string.h"

namespace ujoin {

/// \brief Frequency statistics of one alphabet symbol c_i in an uncertain
/// string (Section 5): a view into the FrequencySummary that owns them,
/// valid until that summary is rebuilt or destroyed.
///
/// The symbol occurs at `certain_count` positions with probability 1 (f^c)
/// and may occur at `uncertain_count` further positions (f^u); its total
/// count is f^c plus a Poisson-binomial variable over the uncertain
/// positions.  The two arrays, each f^u + 1 long, are the paper's S1 and
/// S4:
///   pmf[x]         = Pr(x uncertain occurrences)                     (S1)
///   scaled_head[x] = Σ_{y<=x} (x - y) · pmf[y]                       (S4)
/// Both are O(f^u) space and built in O((f^u)²) time (pmf) + O(f^u) (S4).
/// E[pD] and E[nD] need only S1·S4 dot products (ExpectedPositivePart), so
/// the paper's S2 and S3 are not kept.  A symbol with no uncertain
/// occurrence reads {1}, {0}.
struct CharFrequencySummary {
  int certain_count = 0;
  int uncertain_count = 0;
  double expected = 0.0;  ///< E[f] = f^c + Σ y · pmf[y]
  std::span<const double> pmf;
  std::span<const double> scaled_head;

  int max_count() const { return certain_count + uncertain_count; }
};

/// \brief Per-string frequency side-structure kept in the join index so the
/// frequency filter runs in O(σ · θ · (|R| + |S|)) per candidate pair.
///
/// Two blocks hold it: one header per alphabet symbol (f^c, f^u, E[f] and
/// an offset), and one array with the S1 and S4 values of the symbols that
/// have uncertain occurrences, each laid out pmf | scaled_head.  A string's
/// summary therefore costs what its uncertain content needs, not two arrays
/// per alphabet symbol.
class FrequencySummary {
 public:
  /// Builds summaries for every symbol of `alphabet` appearing in `s`.
  /// Symbols of `s` outside the alphabet are a programming error (checked).
  static FrequencySummary Build(const UncertainString& s,
                                const Alphabet& alphabet);

  /// Rebuilds `out` for `s` in place, reusing its two blocks: once they
  /// have grown to fit, a rebuild allocates nothing.  The result is
  /// bit-identical to Build's.
  static void BuildInto(const UncertainString& s, const Alphabet& alphabet,
                        FrequencySummary* out);

  int length() const { return length_; }
  int alphabet_size() const { return static_cast<int>(symbols_.size()); }
  CharFrequencySummary ForSymbol(int index) const {
    const Symbol& h = symbols_[static_cast<size_t>(index)];
    const double* block =
        h.uncertain_count > 0 ? values_.data() + h.offset : kCertainOnly;
    const size_t n = static_cast<size_t>(h.uncertain_count) + 1;
    return CharFrequencySummary{h.certain_count, h.uncertain_count,
                                h.expected, {block, n}, {block + n, n}};
  }

  /// Bytes of the two blocks (their capacity).
  size_t MemoryUsage() const;

 private:
  struct Symbol {
    int certain_count = 0;
    int uncertain_count = 0;
    double expected = 0.0;
    /// Start of the symbol's S1 and S4 in `values_`; unused when
    /// uncertain_count is 0.
    uint32_t offset = 0;
  };
  /// S1 and S4 of a symbol with no uncertain occurrence: what the event DP
  /// gives for zero events, shared by every such symbol.
  static constexpr double kCertainOnly[2] = {1.0, 0.0};

  std::vector<Symbol> symbols_;
  std::vector<double> values_;
  int length_ = 0;
};

/// E[(a - b)+] for the independent per-symbol counts described by two
/// summaries, computed in O(min(f^u_a, f^u_b)) using the identity
/// E[(a-b)+] = E[a] - E[b] + E[(b-a)+].
double ExpectedPositivePart(const CharFrequencySummary& a,
                            const CharFrequencySummary& b);

/// Lemma 6: a lower bound on fd(R, S) that holds in *every* possible world.
/// Pairs with bound > k cannot satisfy ed(R, S) <= k in any world.
int FreqDistanceLowerBound(const FrequencySummary& r,
                           const FrequencySummary& s);

/// E[pD] and E[nD] over all possible worlds (Section 5).
struct ExpectedFreqDistances {
  double pos;  ///< E[pD] = Σ_i E[(fR_i - fS_i)+]
  double neg;  ///< E[nD] = Σ_i E[(fS_i - fR_i)+]
};
ExpectedFreqDistances ExpectedFreqDistance(const FrequencySummary& r,
                                           const FrequencySummary& s);

/// Theorem 3: one-sided-Chebyshev upper bound on
/// Pr(ed(R,S) <= k) <= Pr(fd(R,S) <= k).  Returns 1 when the inequality's
/// precondition (A > k) fails, i.e. the bound never over-prunes there.
double FreqChebyshevBound(const FrequencySummary& r, const FrequencySummary& s,
                          int k);

/// \brief Combined outcome of the frequency-distance filter for a pair.
struct FreqFilterOutcome {
  int fd_lower_bound = 0;    ///< Lemma 6
  double upper_bound = 1.0;  ///< Theorem 3

  bool Survives(int k, double tau) const {
    return fd_lower_bound <= k && upper_bound > tau;
  }
};

FreqFilterOutcome EvaluateFreqFilter(const FrequencySummary& r,
                                     const FrequencySummary& s, int k);

}  // namespace ujoin

#endif  // UJOIN_FILTER_FREQ_FILTER_H_
