// AVX2 instantiation of the scanMatch kernels. This TU is compiled with
// -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt) and is only on the
// build when LGV_ENABLE_AVX2 is set; runtime dispatch never calls into it
// unless CPUID reports avx2+fma.
#include "common/simd_vec.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include "common/simd_kernels_impl.h"

namespace lgv::simd::detail {

void transform_project_avx2(const TransformProjectArgs& args) {
  transform_project_impl<VecAVX2>(args);
}

double score_hits_avx2(const ScoreHitsArgs& args) {
  return score_hits_impl<VecAVX2>(args);
}

void min_obstacle_d2_avx2(const NeighborArgs& args, double* out_d2) {
  min_obstacle_d2_impl<VecAVX2>(args, out_d2);
}

void exp_array_avx2(const double* x, double* out, size_t n) {
  exp_array_impl<VecAVX2>(x, out, n);
}

}  // namespace lgv::simd::detail

#endif
