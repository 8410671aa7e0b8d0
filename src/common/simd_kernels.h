// Dispatch surface of the vectorized scanMatch building blocks. The scalar
// semantics these mirror live in ScanMatcher::score (the reference loop);
// see docs/kernels.md for the staged pipeline these two kernels implement:
//
//   stage A  transform_project — rigid-transform the SoA beam endpoints by a
//            candidate pose and project endpoint + free-space-check points to
//            cell indices. Bit-identical to the scalar projection (same
//            sub/div/floor sequence), so the branch decisions computed from
//            the cells never diverge from the reference.
//   stage B  (scalar, in the caller) — likelihood-field entry lookups and
//            hit/unknown classification, compacting hits.
//   stage C  score_hits — per hit, min squared distance to an occupied cell
//            of the 3×3 neighborhood (from the packed entry mask) and
//            exp(−d²/2σ²), summed. Equal to the scalar value up to reduction
//            order and the vectorized exp's ≤2 ulp.
//
// AMCL's measurement model runs stage A (endpoints only) and min_obstacle_d2,
// stage C's neighbour minimum on its own: bit-identical to
// LikelihoodField::min_obstacle_d2, so its exp/log sum stays scalar and exact.
//
// exp_array is stage C's exponential exposed on its own for accuracy tests.
// All entry points take an explicit Level so equivalence tests can exercise a
// specific path; callers normally pass simd::active_level().
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace lgv::simd {

struct TransformProjectArgs {
  size_t n = 0;
  // Sensor-frame SoA endpoint arrays (PrecomputedScan layout). With no
  // before_x, the free-space points and their two outputs are skipped.
  const double* end_x = nullptr;
  const double* end_y = nullptr;
  const double* before_x = nullptr;
  const double* before_y = nullptr;
  // Candidate pose.
  double pose_x = 0.0, pose_y = 0.0, cos_t = 0.0, sin_t = 0.0;
  // Grid frame.
  double origin_x = 0.0, origin_y = 0.0, resolution = 1.0;
  // Outputs (size n): world-frame endpoints and projected cell indices.
  double* out_end_x = nullptr;
  double* out_end_y = nullptr;
  int32_t* out_end_cx = nullptr;
  int32_t* out_end_cy = nullptr;
  int32_t* out_before_cx = nullptr;
  int32_t* out_before_cy = nullptr;
};

struct NeighborArgs {
  size_t n = 0;
  // Per beam: world endpoint, its cell, the field entry's 9-bit
  // neighbor-occupancy mask.
  const double* end_x = nullptr;
  const double* end_y = nullptr;
  const int32_t* cell_x = nullptr;
  const int32_t* cell_y = nullptr;
  const int32_t* neighbor_mask = nullptr;
  double origin_x = 0.0, origin_y = 0.0, resolution = 1.0;
};

struct ScoreHitsArgs : NeighborArgs {
  double two_sigma2 = 1.0;  ///< 2σ², the exp kernel denominator
};

/// Stage A. `level` must be a vector level actually available in this build
/// (falls back to SSE2-as-compiled when asked for more than the build has).
void transform_project(Level level, const TransformProjectArgs& args);

/// Stage C; returns Σ exp(−min_d²/2σ²) over the hits.
double score_hits(Level level, const ScoreHitsArgs& args);

/// out_d2[i] = min squared distance from endpoint i to the center of an
/// occupied cell of its 3×3 neighbourhood, +infinity for an empty mask; the
/// same bits as LikelihoodField::min_obstacle_d2.
void min_obstacle_d2(Level level, const NeighborArgs& args, double* out_d2);

/// out[i] = exp(x[i]) via the vectorized exponential (≤2 ulp of libm).
void exp_array(Level level, const double* x, double* out, size_t n);

namespace detail {
void transform_project_sse2(const TransformProjectArgs& args);
double score_hits_sse2(const ScoreHitsArgs& args);
void min_obstacle_d2_sse2(const NeighborArgs& args, double* out_d2);
void exp_array_sse2(const double* x, double* out, size_t n);
void transform_project_avx2(const TransformProjectArgs& args);
double score_hits_avx2(const ScoreHitsArgs& args);
void min_obstacle_d2_avx2(const NeighborArgs& args, double* out_d2);
void exp_array_avx2(const double* x, double* out, size_t n);
}  // namespace detail

}  // namespace lgv::simd
