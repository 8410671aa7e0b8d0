// Level dispatch for the fan ray-cast. The scalar reference path lives in
// World::raycast_fan; callers only come here with a vector level.
#include "sim/raycast_kernels.h"

#include <cassert>

namespace lgv::sim {

void dda_fan(simd::Level level, const DdaFanArgs& args) {
  using simd::Level;
#if !defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) level = Level::kSSE2;
#endif
#if !defined(LGV_HAVE_SSE2)
  level = Level::kScalar;
#endif
  assert(level != Level::kScalar && "caller owns the scalar path");
#if defined(LGV_HAVE_AVX2)
  if (level == Level::kAVX2) {
    detail::dda_fan_avx2(args);
    return;
  }
#endif
#if defined(LGV_HAVE_SSE2)
  detail::dda_fan_sse2(args);
#else
  (void)level;
  (void)args;
#endif
}

}  // namespace lgv::sim
