// SSE2 instantiation of the scanMatch kernels (baseline x86-64 — no extra
// compile flags needed; empty on other architectures, where dispatch never
// selects a vector level).
#include "common/simd_vec.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)

#include "common/simd_kernels_impl.h"

namespace lgv::simd::detail {

void transform_project_sse2(const TransformProjectArgs& args) {
  transform_project_impl<VecSSE2>(args);
}

double score_hits_sse2(const ScoreHitsArgs& args) {
  return score_hits_impl<VecSSE2>(args);
}

void min_obstacle_d2_sse2(const NeighborArgs& args, double* out_d2) {
  min_obstacle_d2_impl<VecSSE2>(args, out_d2);
}

void exp_array_sse2(const double* x, double* out, size_t n) {
  exp_array_impl<VecSSE2>(x, out, n);
}

}  // namespace lgv::simd::detail

#endif
