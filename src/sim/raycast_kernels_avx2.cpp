// AVX2 instantiation of the fan ray-cast; compiled with -mavx2 -mfma
// -ffp-contract=off and only dispatched to when CPUID reports avx2+fma.
#include "common/simd_vec.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)

#include "sim/raycast_kernels_impl.h"

namespace lgv::sim::detail {

void dda_fan_avx2(const DdaFanArgs& args) { dda_fan_impl<lgv::simd::VecAVX2>(args); }

}  // namespace lgv::sim::detail

#endif
