// ujoin-effects-fixture: as=src/util/simd_neon.h contract=simd-intrinsics
//
// Clean counterpart of bad_simd_intrinsics.cc: the same raw vector forms
// (header include, NEON types and calls, __builtin_prefetch) are allowed
// inside the kernel layer, the one place target-specific code may live.
// Intrinsic names in comments must not fire either, e.g.
// _mm256_add_pd(acc, x) or #include <immintrin.h>.
#include <arm_neon.h>
#include <cstddef>

namespace ujoin {
namespace simd {

namespace scalar {
inline double LaneSum(const double* a, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i];
  return s;
}
}  // namespace scalar

namespace detail {
inline double LaneSumNeon(const double* a, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_f64(acc, vld1q_f64(a + i));
  double s = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) s += a[i];
  return s;
}
}  // namespace detail

inline double LaneSum(const double* a, std::size_t n) {
  __builtin_prefetch(a);
  if (n >= 2) return detail::LaneSumNeon(a, n);
  return scalar::LaneSum(a, n);
}

}  // namespace simd
}  // namespace ujoin
