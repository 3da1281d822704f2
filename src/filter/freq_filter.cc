#include "filter/freq_filter.h"

#include <algorithm>
#include <cmath>

#include "filter/event_dp.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"

namespace ujoin {

double CharFrequencySummary::ExpectedExcessOver(int a) const {
  const int u = a - certain_count;
  if (u < 0) return expected - a;  // every world has f >= certain_count > a
  if (u >= uncertain_count) return 0.0;
  return scaled_tail[static_cast<size_t>(u) + 1];
}

double CharFrequencySummary::ExpectedDeficitBelow(int a) const {
  const int u = a - certain_count;
  if (u <= 0) return 0.0;  // f >= certain_count >= a in every world
  if (u > uncertain_count) return a - expected;
  return scaled_head[static_cast<size_t>(u)];
}

FrequencySummary FrequencySummary::Build(const UncertainString& s,
                                         const Alphabet& alphabet) {
  // ujoin-effect: declares(alloc) -- summaries are built once per query (and
  // once per string at index build), not per candidate pair.
  FrequencySummary out;
  out.length_ = s.length();
  out.chars_.resize(static_cast<size_t>(alphabet.size()));
  std::vector<std::vector<double>> uncertain_probs(
      static_cast<size_t>(alphabet.size()));
  for (int i = 0; i < s.length(); ++i) {
    for (const CharProb& cp : s.AlternativesAt(i)) {
      const int idx = alphabet.IndexOf(cp.symbol);
      UJOIN_CHECK(idx >= 0);
      if (s.IsCertain(i)) {
        ++out.chars_[static_cast<size_t>(idx)].certain_count;
      } else {
        uncertain_probs[static_cast<size_t>(idx)].push_back(cp.prob);
      }
    }
  }
  for (size_t c = 0; c < out.chars_.size(); ++c) {
    CharFrequencySummary& summary = out.chars_[c];
    summary.uncertain_count = static_cast<int>(uncertain_probs[c].size());
    summary.pmf = EventCountDistribution(uncertain_probs[c]);
    const size_t n = summary.pmf.size();  // uncertain_count + 1
    summary.tail.assign(n, 0.0);
    summary.scaled_tail.assign(n, 0.0);
    summary.scaled_head.assign(n, 0.0);
    summary.tail[n - 1] = summary.pmf[n - 1];
    summary.scaled_tail[n - 1] = summary.pmf[n - 1];
    for (size_t x = n - 1; x-- > 0;) {
      summary.tail[x] = summary.tail[x + 1] + summary.pmf[x];
      summary.scaled_tail[x] = summary.scaled_tail[x + 1] + summary.tail[x];
    }
    double head = summary.pmf[0];  // Σ_{y <= x-1} pmf[y] while filling x
    for (size_t x = 1; x < n; ++x) {
      summary.scaled_head[x] = summary.scaled_head[x - 1] + head;
      head += summary.pmf[x];
    }
    // Σ y·pmf[y] via the 4-slot dot kernel.  The tail/scaled_tail/scaled_head
    // scans above are prefix sums: each element depends on the previous
    // one; the fold-ordered frequency-distance math is the dot products
    // consuming these arrays (here and in ExpectedPositivePart).
    const double mean_uncertain =
        n > 1 ? simd::IotaDotSlots(summary.pmf.data() + 1, 1, n - 1) : 0.0;
    summary.expected = summary.certain_count + mean_uncertain;
  }
  return out;
}

size_t FrequencySummary::MemoryUsage() const {
  size_t bytes = sizeof(*this) + chars_.capacity() * sizeof(CharFrequencySummary);
  for (const CharFrequencySummary& c : chars_) {
    bytes += (c.pmf.capacity() + c.tail.capacity() + c.scaled_tail.capacity() +
              c.scaled_head.capacity()) *
             sizeof(double);
  }
  return bytes;
}

double ExpectedPositivePart(const CharFrequencySummary& a,
                            const CharFrequencySummary& b) {
  if (b.uncertain_count < a.uncertain_count) {
    // E[(a-b)+] = E[a] - E[b] + E[(b-a)+]; recurse over the smaller support.
    return a.expected - b.expected + ExpectedPositivePart(b, a);
  }
  // E[(a-b)+] = Σ_x Pr(f_a = certain_a + x) · E[(certain_a + x - f_b)+].
  // Split by which branch of ExpectedDeficitBelow(certain_a + x) applies
  // (u = certain_a + x - certain_b):
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

int FreqDistanceLowerBound(const FrequencySummary& r,
                           const FrequencySummary& s) {
  UJOIN_CHECK(r.alphabet_size() == s.alphabet_size());
  int pos = 0;  // Σ over symbols with fS^t < fR^c of (fR^c - fS^t)
  int neg = 0;  // Σ over symbols with fR^t < fS^c of (fS^c - fR^t)
  for (int c = 0; c < r.alphabet_size(); ++c) {
    const CharFrequencySummary& fr = r.ForSymbol(c);
    const CharFrequencySummary& fs = s.ForSymbol(c);
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
    const CharFrequencySummary& fr = r.ForSymbol(c);
    const CharFrequencySummary& fs = s.ForSymbol(c);
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
