// SSE2 instantiation of the fan ray-cast (baseline x86-64; compiled with
// -ffp-contract=off like every kernel TU).
#include "common/simd_vec.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE2__)

#include "sim/raycast_kernels_impl.h"

namespace lgv::sim::detail {

void dda_fan_sse2(const DdaFanArgs& args) { dda_fan_impl<lgv::simd::VecSSE2>(args); }

}  // namespace lgv::sim::detail

#endif
