#ifndef UJOIN_UTIL_MATH_UTIL_H_
#define UJOIN_UTIL_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace ujoin {

/// Probabilities accumulated over many floating-point operations can drift a
/// hair outside [0, 1]; tolerance used when validating / clamping them.
inline constexpr double kProbEpsilon = 1e-9;

/// Clamps a computed probability into [0, 1].
inline double ClampProb(double p) { return std::clamp(p, 0.0, 1.0); }

/// Saturating multiply for world counts: the number of possible worlds of an
/// uncertain string overflows int64 quickly, so counting code saturates at
/// kWorldCountCap instead of overflowing.
inline constexpr int64_t kWorldCountCap = INT64_MAX / 2;

inline int64_t SaturatingMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kWorldCountCap / b) return kWorldCountCap;
  return a * b;
}

/// Saturating add for sums of world counts in [0, kWorldCountCap]: the sum
/// of two such values cannot overflow int64, so one clamp suffices.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  return std::min(a + b, kWorldCountCap);
}

}  // namespace ujoin

#endif  // UJOIN_UTIL_MATH_UTIL_H_
