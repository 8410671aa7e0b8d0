// Level dispatch for the scanMatch kernels. The callers guard the scalar
// case themselves (the scalar reference loop lives in ScanMatcher::score),
// so an unavailable level degrades to the strongest one this build carries.
#include "common/simd_kernels.h"

#include <cassert>
#include <cmath>

namespace lgv::simd {

namespace {
Level clamp_to_build(Level level) {
#if !defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) level = Level::kSSE2;
#endif
#if !defined(LGV_HAVE_SSE2)
  level = Level::kScalar;
#endif
  return level;
}
}  // namespace

void transform_project(Level level, const TransformProjectArgs& args) {
  level = clamp_to_build(level);
  assert(level != Level::kScalar && "caller owns the scalar path");
#if defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) {
    detail::transform_project_avx2(args);
    return;
  }
#endif
#if defined(LGV_HAVE_SSE2)
  detail::transform_project_sse2(args);
#else
  (void)args;
#endif
}

double score_hits(Level level, const ScoreHitsArgs& args) {
  level = clamp_to_build(level);
  assert(level != Level::kScalar && "caller owns the scalar path");
#if defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) return detail::score_hits_avx2(args);
#endif
#if defined(LGV_HAVE_SSE2)
  return detail::score_hits_sse2(args);
#else
  (void)args;
  return 0.0;
#endif
}

void min_obstacle_d2(Level level, const NeighborArgs& args, double* out_d2) {
  level = clamp_to_build(level);
  assert(level != Level::kScalar && "caller owns the scalar path");
#if defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) {
    detail::min_obstacle_d2_avx2(args, out_d2);
    return;
  }
#endif
#if defined(LGV_HAVE_SSE2)
  detail::min_obstacle_d2_sse2(args, out_d2);
#else
  (void)args;
  (void)out_d2;
#endif
}

void exp_array(Level level, const double* x, double* out, size_t n) {
  level = clamp_to_build(level);
#if defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) {
    detail::exp_array_avx2(x, out, n);
    return;
  }
#endif
#if defined(LGV_HAVE_SSE2)
  if (level != Level::kScalar) {
    detail::exp_array_sse2(x, out, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

}  // namespace lgv::simd
