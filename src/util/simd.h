#ifndef UJOIN_UTIL_SIMD_H_
#define UJOIN_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

// ---------------------------------------------------------------------------
// Kernels for the probe-path hot loops: the CDF banded-DP cell (Theorem 4),
// the event-count DP row (Theorem 2), the two frequency-distance sums
// (Theorem 3) and the batched index fingerprint.  Each has one portable
// body that every target compiles and runs (DESIGN.md "Probe-path
// kernels").
//
// Two rules keep the output bits the same on every target:
//  * reductions use a fixed 4-slot fold (term i goes to slot i%4, slots
//    combine as (s0+s1)+(s2+s3)): the summation order is written in the
//    source, and the four independent accumulators let the compiler
//    overlap or vectorize the loop without reassociating a sum;
//  * the build pins -ffp-contract=off, so no compiler fuses a mul+add pair
//    into an FMA that rounds once instead of twice.
//
// This header is also the only place in the tree allowed to emit
// `__builtin_prefetch` or ISA intrinsics (tools/ujoin_effects.py, scope
// contract `simd-intrinsics`).  None of the kernels allocates; all write only
// through caller-provided pointers, preserving the steady-state
// zero-allocation probe path.
// ---------------------------------------------------------------------------

namespace ujoin {
namespace simd {

/// CDF banded-DP cell update (Theorem 4, cdf_filter.cc).  Computes the
/// `width` = k+1 (L[j], U[j]) bound lanes of one band cell from its three
/// neighbor cells and the selected argmin-lower neighbor `lsel`:
///   lo[j] = max(p1 * l1[j], p2 * lsel[j-1])
///   up[j] = min(1, p1 * u1[j] + p2 * u1[j-1] + u2[j-1] + u3[j-1])
/// with index -1 reading as 0.  Returns max_j up[j] (the caller folds it
/// into the row maximum for prefix pruning).  `lo`/`up` must not alias any
/// input at an overlapping index range (the DP writes cell d while reading
/// cells d-1 of the same row and d, d+1 of the previous row).
inline double CdfCellUpdate(const double* l1, const double* u1,
                            const double* u2, const double* u3,
                            const double* lsel, double p1, double p2,
                            int width, double* lo, double* up) {
  double cell_max = 0.0;
  for (int j = 0; j < width; ++j) {
    const double lsel_prev = j > 0 ? lsel[j - 1] : 0.0;
    lo[j] = p1 * l1[j] < p2 * lsel_prev ? p2 * lsel_prev : p1 * l1[j];
    const double u1_prev = j > 0 ? u1[j - 1] : 0.0;
    const double u2_prev = j > 0 ? u2[j - 1] : 0.0;
    const double u3_prev = j > 0 ? u3[j - 1] : 0.0;
    const double sum = p1 * u1[j] + p2 * u1_prev + u2_prev + u3_prev;
    up[j] = sum < 1.0 ? sum : 1.0;
    cell_max = cell_max < up[j] ? up[j] : cell_max;
  }
  return cell_max;
}

/// One row of the event-count DP (Theorem 2, event_dp.cc): folds an event of
/// probability `alpha` into `dist[0..upto]` in place:
///   dist[j] = alpha * dist[j-1] + (1-alpha) * dist[j]   for j = upto..1,
///   dist[0] *= 1 - alpha.
/// Each new lane depends only on old lanes j-1 and j.
inline void EventDpStep(double alpha, int upto, double* dist) {
  const double beta = 1.0 - alpha;
  for (int j = upto; j >= 1; --j) {
    dist[j] = alpha * dist[j - 1] + beta * dist[j];
  }
  dist[0] *= beta;
}

/// Dot product Σ a[i]·b[i] with the fixed 4-slot fold: term i goes to slot
/// i%4 in ascending i order; slots combine as (s0+s1)+(s2+s3).
inline double DotSlots(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  if (i < n) s0 += a[i] * b[i];
  if (i + 1 < n) s1 += a[i + 1] * b[i + 1];
  if (i + 2 < n) s2 += a[i + 2] * b[i + 2];
  return (s0 + s1) + (s2 + s3);
}

/// Weighted index sum Σ a[i]·double(k0+i) with the same 4-slot fold as
/// DotSlots.  double(k0+i) is exact for the count-sized integers the
/// frequency summaries use.
inline double IotaDotSlots(const double* a, int k0, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * static_cast<double>(k0 + static_cast<int>(i));
    s1 += a[i + 1] * static_cast<double>(k0 + static_cast<int>(i) + 1);
    s2 += a[i + 2] * static_cast<double>(k0 + static_cast<int>(i) + 2);
    s3 += a[i + 3] * static_cast<double>(k0 + static_cast<int>(i) + 3);
  }
  if (i < n) s0 += a[i] * static_cast<double>(k0 + static_cast<int>(i));
  if (i + 1 < n) {
    s1 += a[i + 1] * static_cast<double>(k0 + static_cast<int>(i) + 1);
  }
  if (i + 2 < n) {
    s2 += a[i + 2] * static_cast<double>(k0 + static_cast<int>(i) + 2);
  }
  return (s0 + s1) + (s2 + s3);
}

// splitmix64 finalizer: spreads short keys across the low bits the slot
// mask consumes.
inline uint64_t SplitmixFinalize(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// The index fingerprint (FNV-1a + splitmix64 finalizer), byte-for-byte the
/// algorithm FlatPostings uses.  flat_postings.cc's public Fingerprint64
/// forwards here so the batched kernel and the single-key path can never
/// drift apart.
inline uint64_t Fingerprint64(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return SplitmixFinalize(h);
}

/// Batched fingerprints: out[i] = Fingerprint64(keys[i], len).  All keys
/// share one length (segment keys have the segment's fixed length).  Four
/// keys advance together, breaking the serial multiply chain of one FNV
/// hash (~3 cycles/byte) into four independent chains the core overlaps;
/// integer math, so the result is the single-key one bit for bit.
inline void Fingerprint64Batch(const char* const* keys, size_t len,
                               size_t count, uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const unsigned char* p0 = reinterpret_cast<const unsigned char*>(keys[i]);
    const unsigned char* p1 =
        reinterpret_cast<const unsigned char*>(keys[i + 1]);
    const unsigned char* p2 =
        reinterpret_cast<const unsigned char*>(keys[i + 2]);
    const unsigned char* p3 =
        reinterpret_cast<const unsigned char*>(keys[i + 3]);
    uint64_t h0 = 0xcbf29ce484222325ULL, h1 = h0, h2 = h0, h3 = h0;
    for (size_t b = 0; b < len; ++b) {
      h0 = (h0 ^ p0[b]) * 0x100000001b3ULL;
      h1 = (h1 ^ p1[b]) * 0x100000001b3ULL;
      h2 = (h2 ^ p2[b]) * 0x100000001b3ULL;
      h3 = (h3 ^ p3[b]) * 0x100000001b3ULL;
    }
    out[i] = SplitmixFinalize(h0);
    out[i + 1] = SplitmixFinalize(h1);
    out[i + 2] = SplitmixFinalize(h2);
    out[i + 3] = SplitmixFinalize(h3);
  }
  for (; i < count; ++i) out[i] = Fingerprint64(keys[i], len);
}

// ---------------------------------------------------------------------------
// Software prefetch.  Purely a scheduling hint — results never depend on it
// — and kept here because the lint rule that confines intrinsics to this
// file covers __builtin_prefetch too.
// ---------------------------------------------------------------------------

/// Hints the read of the cache line at `p` (moderate temporal locality).
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 2);
#else
  (void)p;
#endif
}

/// PrefetchRead of `p + byte_offset`, computed over uintptr_t so a hint a
/// few lines past the end of an array stays free of pointer-arithmetic UB
/// (prefetch of any address, mapped or not, is architecturally a no-op).
inline void PrefetchReadOffset(const void* p, size_t byte_offset) {
  PrefetchRead(reinterpret_cast<const void*>(reinterpret_cast<uintptr_t>(p) +
                                             byte_offset));
}

}  // namespace simd
}  // namespace ujoin

#endif  // UJOIN_UTIL_SIMD_H_
