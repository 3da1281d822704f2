#include "filter/freq_filter.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"

namespace ujoin {

FrequencySummary FrequencySummary::Build(const UncertainString& s,
                                         const Alphabet& alphabet) {
  FrequencySummary out;
  BuildInto(s, alphabet, &out);
  return out;
}

void FrequencySummary::BuildInto(const UncertainString& s,
                                 const Alphabet& alphabet,
                                 FrequencySummary* out) {
  // ujoin-effect: declares(alloc) -- grows the summary's two blocks until
  // they fit; a warm summary (the query's, kept in its QueryWorkspace)
  // rebuilds without allocating.
  out->length_ = s.length();
  std::vector<Symbol>& symbols = out->symbols_;
  symbols.assign(static_cast<size_t>(alphabet.size()), Symbol{});
  for (int i = 0; i < s.length(); ++i) {
    const bool certain = s.IsCertain(i);
    for (const CharProb& cp : s.AlternativesAt(i)) {
      const int idx = alphabet.IndexOf(cp.symbol);
      UJOIN_CHECK(idx >= 0);
      Symbol& h = symbols[static_cast<size_t>(idx)];
      if (certain) {
        ++h.certain_count;
      } else {
        ++h.uncertain_count;
      }
    }
  }
  // Lay out S1 and S4 for the symbols with uncertain occurrences, each pmf
  // starting as the zero-event distribution (1, 0, ..., 0).
  size_t total = 0;
  for (Symbol& h : symbols) {
    if (h.uncertain_count == 0) continue;
    h.offset = static_cast<uint32_t>(total);
    total += 2 * (static_cast<size_t>(h.uncertain_count) + 1);
  }
  UJOIN_CHECK(total <= UINT32_MAX);
  std::vector<double>& values = out->values_;
  values.assign(total, 0.0);
  for (Symbol& h : symbols) {
    if (h.uncertain_count == 0) continue;
    values[h.offset] = 1.0;
    h.uncertain_count = 0;  // counts the events folded in below
  }
  // The event DP of Section 3.1, one row per symbol in its pmf slot: each
  // symbol's uncertain probabilities are folded in position order.
  for (int i = 0; i < s.length(); ++i) {
    if (s.IsCertain(i)) continue;
    for (const CharProb& cp : s.AlternativesAt(i)) {
      Symbol& h = symbols[static_cast<size_t>(alphabet.IndexOf(cp.symbol))];
      simd::EventDpStep(cp.prob, ++h.uncertain_count, &values[h.offset]);
    }
  }
  for (Symbol& h : symbols) {
    if (h.uncertain_count == 0) {
      h.expected = h.certain_count;
      continue;
    }
    const size_t n = static_cast<size_t>(h.uncertain_count) + 1;
    double* const pmf = &values[h.offset];
    double* const scaled_head = pmf + n;
    double head = pmf[0];  // Σ_{y <= x-1} pmf[y] while filling x
    for (size_t x = 1; x < n; ++x) {
      scaled_head[x] = scaled_head[x - 1] + head;
      head += pmf[x];
    }
    // Σ y·pmf[y] via the 4-slot dot kernel.  The scaled_head scan above is
    // a prefix sum: each element depends on the previous one; the
    // fold-ordered frequency-distance math is the dot products consuming
    // these arrays (here and in ExpectedPositivePart).
    h.expected = h.certain_count + simd::IotaDotSlots(pmf + 1, 1, n - 1);
  }
}

size_t FrequencySummary::MemoryUsage() const {
  return symbols_.capacity() * sizeof(Symbol) +
         values_.capacity() * sizeof(double);
}

namespace {

// E[(a-b)+] summed over a's uncertain support; ExpectedPositivePart calls it
// with the smaller support as `a`.
inline double PositivePartOverSupportOf(const CharFrequencySummary& a,
                                        const CharFrequencySummary& b) {
  // E[(a-b)+] = Σ_x Pr(f_a = certain_a + x) · E[(certain_a + x - f_b)+].
  // Split by where c = certain_a + x falls against f_b's support
  // (u = c - certain_b):
  //   u <= 0                 -> deficit 0, no contribution;
  //   1 <= u <= uncertain_b  -> pmf[x] · scaled_head[u], one contiguous dot
  //                             product over the S-prefix array (kernel);
  //   u > uncertain_b        -> pmf[x] · ((certain_a + x) - E[f_b]), a short
  //                             (usually empty) scalar tail.
  const int off = a.certain_count - b.certain_count;
  const int mid_lo = std::max(0, 1 - off);
  const int mid_hi = std::min(a.uncertain_count, b.uncertain_count - off);
  double total = 0.0;
  if (mid_hi >= mid_lo) {
    total = simd::DotSlots(a.pmf.data() + mid_lo,
                           b.scaled_head.data() + (mid_lo + off),
                           static_cast<size_t>(mid_hi - mid_lo) + 1);
  }
  for (int x = std::max(0, b.uncertain_count - off + 1);
       x <= a.uncertain_count; ++x) {
    const double px = a.pmf[static_cast<size_t>(x)];
    if (px == 0.0) continue;
    total += px * (static_cast<double>(a.certain_count + x) - b.expected);
  }
  return std::max(total, 0.0);
}

}  // namespace

double ExpectedPositivePart(const CharFrequencySummary& a,
                            const CharFrequencySummary& b) {
  if (b.uncertain_count < a.uncertain_count) {
    // E[(a-b)+] = E[a] - E[b] + E[(b-a)+], summed over the smaller support.
    return a.expected - b.expected + PositivePartOverSupportOf(b, a);
  }
  return PositivePartOverSupportOf(a, b);
}

int FreqDistanceLowerBound(const FrequencySummary& r,
                           const FrequencySummary& s) {
  UJOIN_CHECK(r.alphabet_size() == s.alphabet_size());
  int pos = 0;  // Σ over symbols with fS^t < fR^c of (fR^c - fS^t)
  int neg = 0;  // Σ over symbols with fR^t < fS^c of (fS^c - fR^t)
  for (int c = 0; c < r.alphabet_size(); ++c) {
    const CharFrequencySummary fr = r.ForSymbol(c);
    const CharFrequencySummary fs = s.ForSymbol(c);
    if (fs.max_count() < fr.certain_count) {
      pos += fr.certain_count - fs.max_count();
    }
    if (fr.max_count() < fs.certain_count) {
      neg += fs.certain_count - fr.max_count();
    }
  }
  return std::max(pos, neg);
}

ExpectedFreqDistances ExpectedFreqDistance(const FrequencySummary& r,
                                           const FrequencySummary& s) {
  UJOIN_CHECK(r.alphabet_size() == s.alphabet_size());
  ExpectedFreqDistances out{0.0, 0.0};
  for (int c = 0; c < r.alphabet_size(); ++c) {
    const CharFrequencySummary fr = r.ForSymbol(c);
    const CharFrequencySummary fs = s.ForSymbol(c);
    if (fr.max_count() == 0 && fs.max_count() == 0) continue;
    out.pos += ExpectedPositivePart(fr, fs);
    out.neg += ExpectedPositivePart(fs, fr);
  }
  return out;
}

double FreqChebyshevBound(const FrequencySummary& r, const FrequencySummary& s,
                          int k) {
  const ExpectedFreqDistances e = ExpectedFreqDistance(r, s);
  const double len_r = r.length();
  const double len_s = s.length();
  const double len_gap = std::fabs(len_r - len_s);
  // In every world pD - nD = |R| - |S|, so fd = (pD + nD + |Δ|) / 2 and
  // A below is exactly E[fd].
  const double a = (len_gap + e.pos + e.neg) / 2.0;
  if (a <= static_cast<double>(k)) return 1.0;  // Chebyshev needs E[fd] > k
  double b2 = (len_r - len_s) * (len_r - len_s) / 2.0 +
              len_gap * (e.pos + e.neg) / 2.0 +
              std::min(len_r * e.neg, len_s * e.pos) - a * a;
  b2 = std::max(b2, 0.0);
  const double gap = a - static_cast<double>(k);
  return ClampProb(b2 / (b2 + gap * gap));
}

FreqFilterOutcome EvaluateFreqFilter(const FrequencySummary& r,
                                     const FrequencySummary& s, int k) {
  FreqFilterOutcome out;
  out.fd_lower_bound = FreqDistanceLowerBound(r, s);
  if (out.fd_lower_bound > k) {
    out.upper_bound = 0.0;
    return out;
  }
  out.upper_bound = FreqChebyshevBound(r, s, k);
  return out;
}

}  // namespace ujoin
