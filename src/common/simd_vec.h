// Per-ISA double-lane wrapper structs for the templated kernel bodies in
// simd_kernels_impl.h, rollout_kernels_impl.h and raycast_kernels_impl.h.
// Each SIMD translation unit instantiates the kernels with the wrapper its
// compile flags make available (VecSSE2 under __SSE2__, VecAVX2 under
// __AVX2__); the wrappers themselves are only defined when the corresponding
// ISA macro is set, so including this header from a plain TU is harmless.
//
// Numerics contract (docs/kernels.md): plain +,-,*,/ and floor() are exactly
// the IEEE operations the scalar reference performs (the SIMD TUs build with
// -ffp-contract=off so the compiler cannot fuse them behind our back). fma()
// is a genuine fused op only on AVX2 — use it where the scalar reference's
// rounding does not have to be matched bit-for-bit (polynomials, rollout
// integration), never in the grid-projection math that feeds cell indices.
#pragma once

#include <bit>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace lgv::simd {

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)

struct VecSSE2 {
  static constexpr int kWidth = 2;
  __m128d v;

  static VecSSE2 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static void store(double* p, VecSSE2 a) { _mm_storeu_pd(p, a.v); }
  static VecSSE2 set1(double x) { return {_mm_set1_pd(x)}; }
  static VecSSE2 zero() { return {_mm_setzero_pd()}; }

  friend VecSSE2 operator+(VecSSE2 a, VecSSE2 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecSSE2 operator-(VecSSE2 a, VecSSE2 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecSSE2 operator*(VecSSE2 a, VecSSE2 b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecSSE2 operator/(VecSSE2 a, VecSSE2 b) { return {_mm_div_pd(a.v, b.v)}; }

  /// a*b + c. SSE2 has no fused op; mul+add keeps lane arithmetic identical
  /// to this TU's padded-tail path (which is all that the blocking-invariance
  /// contract needs).
  static VecSSE2 fma(VecSSE2 a, VecSSE2 b, VecSSE2 c) { return a * b + c; }

  static VecSSE2 min(VecSSE2 a, VecSSE2 b) { return {_mm_min_pd(a.v, b.v)}; }
  static VecSSE2 max(VecSSE2 a, VecSSE2 b) { return {_mm_max_pd(a.v, b.v)}; }
  static VecSSE2 cmp_gt(VecSSE2 a, VecSSE2 b) { return {_mm_cmpgt_pd(a.v, b.v)}; }
  static VecSSE2 cmp_lt(VecSSE2 a, VecSSE2 b) { return {_mm_cmplt_pd(a.v, b.v)}; }
  static VecSSE2 cmp_le(VecSSE2 a, VecSSE2 b) { return {_mm_cmple_pd(a.v, b.v)}; }
  /// Bit l set where lane l of a comparison mask is all-ones.
  static int movemask(VecSSE2 mask) { return _mm_movemask_pd(mask.v); }
  static VecSSE2 and_(VecSSE2 a, VecSSE2 b) { return {_mm_and_pd(a.v, b.v)}; }
  static VecSSE2 select(VecSSE2 mask, VecSSE2 a, VecSSE2 b) {
    return {_mm_or_pd(_mm_and_pd(mask.v, a.v), _mm_andnot_pd(mask.v, b.v))};
  }

  /// floor() without SSE4.1: truncate toward zero, then step down where the
  /// truncation rounded a negative fraction up. Valid for |x| < 2^31, which
  /// covers every grid-relative coordinate the kernels project.
  static VecSSE2 floor(VecSSE2 a) {
    const __m128d t = _mm_cvtepi32_pd(_mm_cvttpd_epi32(a.v));
    return {_mm_sub_pd(t, _mm_and_pd(_mm_cmpgt_pd(t, a.v), _mm_set1_pd(1.0)))};
  }

  /// Store the integer value of an already-integral vector (floor output).
  static void store_floor_i32(int32_t* p, VecSSE2 floored) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_cvttpd_epi32(floored.v));
  }

  /// Load kWidth int32 values and convert to double lanes.
  static VecSSE2 from_i32(const int32_t* p) {
    return {_mm_cvtepi32_pd(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)))};
  }

  /// All-ones lane where (p[i] & bit) != 0, else zero — a select() mask.
  static VecSSE2 bitmask_from_i32(const int32_t* p, int32_t bit) {
    const __m128i m = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    const __m128i b = _mm_set1_epi32(bit);
    const __m128i eq = _mm_cmpeq_epi32(_mm_and_si128(m, b), b);
    return {_mm_castsi128_pd(_mm_unpacklo_epi32(eq, eq))};
  }

  /// 2^n for integral-valued lanes, |n| <= 1022: exponent-field construction.
  static VecSSE2 pow2i(VecSSE2 n) {
    alignas(16) double buf[2];
    store(buf, n);
    for (int i = 0; i < 2; ++i) {
      buf[i] = std::bit_cast<double>((static_cast<int64_t>(buf[i]) + 1023) << 52);
    }
    return load(buf);
  }
};

#endif  // __SSE2__

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

struct VecAVX2 {
  static constexpr int kWidth = 4;
  __m256d v;

  static VecAVX2 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void store(double* p, VecAVX2 a) { _mm256_storeu_pd(p, a.v); }
  static VecAVX2 set1(double x) { return {_mm256_set1_pd(x)}; }
  static VecAVX2 zero() { return {_mm256_setzero_pd()}; }

  friend VecAVX2 operator+(VecAVX2 a, VecAVX2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecAVX2 operator-(VecAVX2 a, VecAVX2 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecAVX2 operator*(VecAVX2 a, VecAVX2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecAVX2 operator/(VecAVX2 a, VecAVX2 b) { return {_mm256_div_pd(a.v, b.v)}; }

  static VecAVX2 fma(VecAVX2 a, VecAVX2 b, VecAVX2 c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }

  static VecAVX2 min(VecAVX2 a, VecAVX2 b) { return {_mm256_min_pd(a.v, b.v)}; }
  static VecAVX2 max(VecAVX2 a, VecAVX2 b) { return {_mm256_max_pd(a.v, b.v)}; }
  static VecAVX2 cmp_gt(VecAVX2 a, VecAVX2 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  static VecAVX2 cmp_lt(VecAVX2 a, VecAVX2 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  static VecAVX2 cmp_le(VecAVX2 a, VecAVX2 b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  static int movemask(VecAVX2 mask) { return _mm256_movemask_pd(mask.v); }
  static VecAVX2 and_(VecAVX2 a, VecAVX2 b) { return {_mm256_and_pd(a.v, b.v)}; }
  /// Bitwise, like VecSSE2's: GCC rewrites _mm256_blendv_pd as a select on
  /// mask < 0 and re-derives the mask with a vpcmpgtq, three cycles on the
  /// fan ray-cast's loop-carried chain.
  static VecAVX2 select(VecAVX2 mask, VecAVX2 a, VecAVX2 b) {
    return {_mm256_or_pd(_mm256_and_pd(mask.v, a.v), _mm256_andnot_pd(mask.v, b.v))};
  }

  static VecAVX2 floor(VecAVX2 a) { return {_mm256_floor_pd(a.v)}; }

  static void store_floor_i32(int32_t* p, VecAVX2 floored) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(floored.v));
  }

  static VecAVX2 from_i32(const int32_t* p) {
    return {_mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
  }

  static VecAVX2 bitmask_from_i32(const int32_t* p, int32_t bit) {
    const __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i b = _mm_set1_epi32(bit);
    const __m128i eq = _mm_cmpeq_epi32(_mm_and_si128(m, b), b);
    return {_mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq))};
  }

  static VecAVX2 pow2i(VecAVX2 n) {
    const __m128i i32 = _mm256_cvttpd_epi32(n.v);
    const __m256i i64 = _mm256_cvtepi32_epi64(i32);
    const __m256i bits =
        _mm256_slli_epi64(_mm256_add_epi64(i64, _mm256_set1_epi64x(1023)), 52);
    return {_mm256_castsi256_pd(bits)};
  }
};

#endif  // __AVX2__

}  // namespace lgv::simd
