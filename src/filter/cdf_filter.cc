#include "filter/cdf_filter.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"

namespace ujoin {

namespace {

// Probability that R[x] and S[y] hold the same symbol (both 0-based); the
// alternative lists are sorted by symbol, so a linear merge suffices.
double MatchCellProbability(const UncertainString& r, int x,
                            const UncertainString& s, int y) {
  auto ra = r.AlternativesAt(x);
  auto sa = s.AlternativesAt(y);
  double p = 0.0;
  size_t a = 0, b = 0;
  while (a < ra.size() && b < sa.size()) {
    if (ra[a].symbol == sa[b].symbol) {
      p += ra[a].prob * sa[b].prob;
      ++a;
      ++b;
    } else if (ra[a].symbol < sa[b].symbol) {
      ++a;
    } else {
      ++b;
    }
  }
  return p;
}

// The banded DP stores, per row, (k+1) bound values for each of the 2k+1
// band offsets.  Cells outside the band (or the matrix) read as all-zero.
class BandRow {
 public:
  BandRow(int k) : k_(k), values_(static_cast<size_t>((2 * k + 1) * (k + 1))) {}

  // Pointer to the k+1 values at band offset d = y - x + k; nullptr if the
  // offset is outside the band.
  double* at(int d) {
    if (d < 0 || d > 2 * k_) return nullptr;
    return values_.data() + static_cast<size_t>(d) * static_cast<size_t>(k_ + 1);
  }
  const double* at(int d) const {
    if (d < 0 || d > 2 * k_) return nullptr;
    return values_.data() + static_cast<size_t>(d) * static_cast<size_t>(k_ + 1);
  }

  void Clear() { std::fill(values_.begin(), values_.end(), 0.0); }

 private:
  int k_;
  std::vector<double> values_;
};

}  // namespace

CdfBounds ComputeCdfBounds(const UncertainString& r, const UncertainString& s,
                           int k) {
  // ujoin-effect: assumes(alloc) -- the per-pair CDF verify stage allocates
  // its banded DP rows by design (see DESIGN.md: verification stages are
  // outside the allocation-free candidate-generation invariant).
  UJOIN_CHECK(k >= 0);
  CdfBounds out;
  out.lower.assign(static_cast<size_t>(k) + 1, 0.0);
  out.upper.assign(static_cast<size_t>(k) + 1, 0.0);
  const int n = r.length();
  const int m = s.length();
  if (std::abs(n - m) > k) return out;  // ed >= |n - m| > k in every world

  const int width = k + 1;  // values per cell
  static const double kZeros[64] = {0.0};
  std::vector<double> zero_cell;
  const double* zeros = kZeros;
  if (width > 64) {
    zero_cell.assign(static_cast<size_t>(width), 0.0);
    zeros = zero_cell.data();
  }

  BandRow lower_prev(k), lower_cur(k), upper_prev(k), upper_cur(k);

  // Row 0: Pr(ed(ε, S[1..y]) <= j) = [j >= y].
  for (int y = 0; y <= std::min(m, k); ++y) {
    double* lo = lower_prev.at(y - 0 + k);
    double* up = upper_prev.at(y - 0 + k);
    for (int j = 0; j <= k; ++j) {
      const double v = j >= y ? 1.0 : 0.0;
      lo[j] = v;
      up[j] = v;
    }
  }

  for (int x = 1; x <= n; ++x) {
    lower_cur.Clear();
    upper_cur.Clear();
    double row_max_upper = 0.0;
    const int y_lo = std::max(0, x - k);
    const int y_hi = std::min(m, x + k);
    for (int y = y_lo; y <= y_hi; ++y) {
      const int d = y - x + k;
      double* lo = lower_cur.at(d);
      double* up = upper_cur.at(d);
      if (y == 0) {
        // Column 0: Pr(ed(R[1..x], ε) <= j) = [j >= x].
        for (int j = 0; j <= k; ++j) {
          const double v = j >= x ? 1.0 : 0.0;
          lo[j] = v;
          up[j] = v;
        }
        continue;
      }
      // Neighbors: D1 = (x-1, y-1), D2 = (x, y-1), D3 = (x-1, y).
      const double* l1 = lower_prev.at(d);
      const double* u1 = upper_prev.at(d);
      const double* l2 = lower_cur.at(d - 1);
      const double* u2 = upper_cur.at(d - 1);
      const double* l3 = lower_prev.at(d + 1);
      const double* u3 = upper_prev.at(d + 1);
      if (l1 == nullptr) l1 = zeros;
      if (u1 == nullptr) u1 = zeros;
      if (l2 == nullptr) l2 = zeros;
      if (u2 == nullptr) u2 = zeros;
      if (l3 == nullptr) l3 = zeros;
      if (u3 == nullptr) u3 = zeros;
      // (x, y-1) exists in the current row but may be column 0 handled above;
      // it was filled (or stays zero if out of range y-1 < y_lo, i.e. the
      // band boundary, where Pr is genuinely 0 for j <= k).

      const double p1 = MatchCellProbability(r, x - 1, s, y - 1);
      const double p2 = 1.0 - p1;

      // argmin neighbor: lexicographically greatest (L[0], L[1], ..., L[k]).
      const double* lsel = l1;
      for (const double* cand : {l2, l3}) {
        for (int j = 0; j <= k; ++j) {
          if (cand[j] > lsel[j]) {
            lsel = cand;
            break;
          }
          if (cand[j] < lsel[j]) break;
        }
      }

      // The k+1 (L[j], U[j]) lanes of this cell, as one kernel call (see
      // util/simd.h).
      // Safe despite lsel/u2 possibly pointing into the row being written:
      // the kernel writes band offset d and reads offset d-1, which ends
      // before the written range begins.
      const double cell_max =
          simd::CdfCellUpdate(l1, u1, u2, u3, lsel, p1, p2, width, lo, up);
      row_max_upper = std::max(row_max_upper, cell_max);
    }
    // Prefix pruning (the probabilistic analogue of the deterministic
    // early-exit): once a row past the first k has all-zero upper bounds,
    // every later row — including the final cell — is identically zero.
    if (x > k && row_max_upper == 0.0) return out;
    std::swap(lower_prev, lower_cur);
    std::swap(upper_prev, upper_cur);
  }

  const int d = m - n + k;
  const double* lo = lower_prev.at(d);
  const double* up = upper_prev.at(d);
  UJOIN_CHECK(lo != nullptr && up != nullptr);
  for (int j = 0; j <= k; ++j) {
    out.lower[static_cast<size_t>(j)] = ClampProb(lo[j]);
    out.upper[static_cast<size_t>(j)] = ClampProb(up[j]);
  }
  return out;
}

CdfDecision DecideWithCdfBounds(const CdfBounds& bounds, int k, double tau) {
  if (bounds.lower[static_cast<size_t>(k)] > tau) return CdfDecision::kAccept;
  if (bounds.upper[static_cast<size_t>(k)] <= tau) return CdfDecision::kReject;
  return CdfDecision::kUndecided;
}

CdfFilterOutcome EvaluateCdfFilter(const UncertainString& r,
                                   const UncertainString& s, int k,
                                   double tau) {
  CdfFilterOutcome out;
  out.bounds = ComputeCdfBounds(r, s, k);
  out.decision = DecideWithCdfBounds(out.bounds, k, tau);
  return out;
}

}  // namespace ujoin
