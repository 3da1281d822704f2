#include "filter/event_dp.h"

#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"

namespace ujoin {

namespace {

// Shared DP core: `dist` must already hold m + 1 entries set to
// (1, 0, ..., 0).  Both public entry points funnel here so the allocating
// and scratch-reusing variants compute bit-identical rows.
void RunEventDp(std::span<const double> alphas, std::vector<double>* dist) {
  int upto = 0;
  double* row = dist->data();
  for (double alpha : alphas) {
    UJOIN_DCHECK(alpha >= 0.0 && alpha <= 1.0);
    ++upto;
    // One folded event per call; the row update is a pure shift-and-blend
    // over old values (util/simd.h).
    simd::EventDpStep(alpha, upto, row);
  }
}

double TailSum(const std::vector<double>& dist, int min_count) {
  double p = 0.0;
  for (size_t y = static_cast<size_t>(min_count); y < dist.size(); ++y) {
    p += dist[y];
  }
  return ClampProb(p);
}

}  // namespace

std::vector<double> EventCountDistribution(std::span<const double> alphas) {
  // ujoin-effect: declares(alloc) -- convenience overload returns a fresh
  // distribution; steady-state callers use EventCountDistributionInto.
  std::vector<double> dist(alphas.size() + 1, 0.0);
  dist[0] = 1.0;
  RunEventDp(alphas, &dist);
  return dist;
}

void EventCountDistributionInto(std::span<const double> alphas,
                                std::vector<double>* dist) {
  dist->assign(alphas.size() + 1, 0.0);
  (*dist)[0] = 1.0;
  RunEventDp(alphas, dist);
}

double ProbAtLeastEvents(std::span<const double> alphas, int min_count) {
  // ujoin-effect: declares(alloc) -- the analyzer merges both overloads
  // into one node; only this convenience form allocates (the probe path in
  // segment_index.cc calls the scratch form below).
  if (min_count <= 0) return 1.0;
  if (min_count > static_cast<int>(alphas.size())) return 0.0;
  const std::vector<double> dist = EventCountDistribution(alphas);
  return TailSum(dist, min_count);
}

double ProbAtLeastEvents(std::span<const double> alphas, int min_count,
                         std::vector<double>* scratch) {
  if (min_count <= 0) return 1.0;
  if (min_count > static_cast<int>(alphas.size())) return 0.0;
  EventCountDistributionInto(alphas, scratch);
  return TailSum(*scratch, min_count);
}

}  // namespace ujoin
