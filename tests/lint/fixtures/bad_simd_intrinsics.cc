// ujoin-effects-fixture: as=src/filter/fast_cdf.cc
//
// Seeded violations: raw vector code outside the kernel layer.  Each form
// is target-specific (x86 intrinsics would not compile on aarch64) and
// bypasses the portable kernels in util/simd.h.
#include <immintrin.h>  // flagged: simd-intrinsics: intrinsics header include
#include <cstddef>

namespace ujoin {

double HandRolledSum(const double* a, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();  // flagged: simd-intrinsics: x86 SIMD intrinsic
  for (std::size_t i = 0; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));  // flagged: simd-intrinsics
  }
  double s[4];
  _mm256_storeu_pd(s, acc);  // flagged: simd-intrinsics: x86 SIMD intrinsic
  return (s[0] + s[1]) + (s[2] + s[3]);
}

void HandRolledPrefetch(const double* a) {
  __builtin_prefetch(a);  // flagged: simd-intrinsics: __builtin_prefetch
}

}  // namespace ujoin
