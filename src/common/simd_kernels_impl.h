// Templated kernel bodies instantiated once per ISA translation unit with
// the matching wrapper from simd_vec.h. Only include this from a TU whose
// compile flags provide the wrapper being instantiated.
//
// Tail policy: the last partial group is processed through the SAME vector
// code on padded stack buffers (remaining lanes duplicated), and only the
// valid lanes are written back / accumulated. Every element therefore sees
// an identical instruction sequence no matter how the caller blocks the
// input — the blocking-invariance the schedule-equivalence tests rely on.
#pragma once

#include <cmath>
#include <cstring>
#include <limits>

#include "common/simd_kernels.h"

namespace lgv::simd {

// Cephes-style exp: x = n·ln2 + r, e^r by a rational minimax in r², scaled
// by 2^n. ≤2 ulp over the clamped domain.
inline constexpr double kExpLog2E = 1.4426950408889634073599;
inline constexpr double kExpC1 = 6.93145751953125e-1;
inline constexpr double kExpC2 = 1.42860682030941723212e-6;
inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;

template <class V>
inline V exp_pd(V x) {
  x = V::min(V::max(x, V::set1(-708.0)), V::set1(708.0));
  const V n = V::floor(V::fma(x, V::set1(kExpLog2E), V::set1(0.5)));
  V r = V::fma(n, V::set1(-kExpC1), x);
  r = V::fma(n, V::set1(-kExpC2), r);
  const V rr = r * r;
  V px = V::fma(rr, V::set1(kExpP0), V::set1(kExpP1));
  px = V::fma(rr, px, V::set1(kExpP2));
  px = px * r;
  V qx = V::fma(rr, V::set1(kExpQ0), V::set1(kExpQ1));
  qx = V::fma(rr, qx, V::set1(kExpQ2));
  qx = V::fma(rr, qx, V::set1(kExpQ3));
  const V e = V::set1(1.0) + (V::set1(2.0) * (px / (qx - px)));
  return e * V::pow2i(n);
}

template <class V>
void transform_project_impl(const TransformProjectArgs& a) {
  constexpr int W = V::kWidth;
  const V px = V::set1(a.pose_x), py = V::set1(a.pose_y);
  const V ct = V::set1(a.cos_t), st = V::set1(a.sin_t);
  const V ox = V::set1(a.origin_x), oy = V::set1(a.origin_y);
  const V res = V::set1(a.resolution);

  // Transform + project W points (world coordinates stored when asked).
  // Mirrors the scalar reference op-for-op (mul, mul, add, sub — no fma;
  // division, not reciprocal-multiply) so the cell indices are bit-identical.
  auto project = [&](const double* lx_p, const double* ly_p, double* owx, double* owy,
                     int32_t* ocx, int32_t* ocy) {
    const V lx = V::load(lx_p), ly = V::load(ly_p);
    const V wx = (px + ct * lx) - st * ly;
    const V wy = (py + st * lx) + ct * ly;
    if (owx != nullptr) {
      V::store(owx, wx);
      V::store(owy, wy);
    }
    V::store_floor_i32(ocx, V::floor((wx - ox) / res));
    V::store_floor_i32(ocy, V::floor((wy - oy) / res));
  };
  const bool with_before = a.before_x != nullptr;

  size_t i = 0;
  for (; i + W <= a.n; i += W) {
    project(a.end_x + i, a.end_y + i, a.out_end_x + i, a.out_end_y + i,
            a.out_end_cx + i, a.out_end_cy + i);
    if (with_before) {
      project(a.before_x + i, a.before_y + i, nullptr, nullptr, a.out_before_cx + i,
              a.out_before_cy + i);
    }
  }
  if (i < a.n) {
    const size_t rem = a.n - i;
    alignas(32) double lx[W], ly[W], wx[W], wy[W];
    alignas(32) int32_t cx[W], cy[W];
    const auto tail = [&](const double* src_x, const double* src_y, double* dst_x,
                          double* dst_y, int32_t* dst_cx, int32_t* dst_cy) {
      for (int l = 0; l < W; ++l) {
        const size_t s = i + (static_cast<size_t>(l) < rem ? l : rem - 1);
        lx[l] = src_x[s];
        ly[l] = src_y[s];
      }
      project(lx, ly, wx, wy, cx, cy);
      for (size_t l = 0; l < rem; ++l) {
        if (dst_x != nullptr) {
          dst_x[i + l] = wx[l];
          dst_y[i + l] = wy[l];
        }
        dst_cx[i + l] = cx[l];
        dst_cy[i + l] = cy[l];
      }
    };
    tail(a.end_x, a.end_y, a.out_end_x, a.out_end_y, a.out_end_cx, a.out_end_cy);
    if (with_before) {
      tail(a.before_x, a.before_y, nullptr, nullptr, a.out_before_cx, a.out_before_cy);
    }
  }
}

/// Min over the masked 3×3 neighbours of the squared distance from (ex, ey)
/// to the neighbour cell's center; +infinity where the mask is empty.
/// Replays LikelihoodField::min_obstacle_d2: cell + offset + 0.5 is exact in
/// double, so ox + (cx + off) * res is its cell_to_world, and d² is
/// (dx*dx) + (dy*dy). The minimum of non-NaN values is exact in any order,
/// so a mask blend over all 9 bits replaces the ctz loop.
template <class V>
inline V neighbor_min_d2(V ex, V ey, V cx, V cy, const int32_t* mask_p, V ox, V oy,
                         V res) {
  V d2min = V::set1(std::numeric_limits<double>::infinity());
  for (int k = 0; k < 9; ++k) {
    const double offx = static_cast<double>(k % 3 - 1) + 0.5;
    const double offy = static_cast<double>(k / 3 - 1) + 0.5;
    const V cwx = ox + (cx + V::set1(offx)) * res;
    const V cwy = oy + (cy + V::set1(offy)) * res;
    const V dx = cwx - ex, dy = cwy - ey;
    const V d2 = (dx * dx) + (dy * dy);
    const V m = V::bitmask_from_i32(mask_p, 1 << k);
    d2min = V::select(m, V::min(d2min, d2), d2min);
  }
  return d2min;
}

template <class V>
double score_hits_impl(const ScoreHitsArgs& a) {
  constexpr int W = V::kWidth;
  const V ox = V::set1(a.origin_x), oy = V::set1(a.origin_y);
  const V res = V::set1(a.resolution);
  const V ts2 = V::set1(a.two_sigma2);

  // exp(−d²min/2σ²) of one W-wide group.
  auto group = [&](const double* ex_p, const double* ey_p, const int32_t* cx_p,
                   const int32_t* cy_p, const int32_t* mask_p) -> V {
    const V d2min = neighbor_min_d2<V>(V::load(ex_p), V::load(ey_p), V::from_i32(cx_p),
                                       V::from_i32(cy_p), mask_p, ox, oy, res);
    return exp_pd<V>(V::zero() - (d2min / ts2));
  };

  V total = V::zero();
  size_t i = 0;
  for (; i + W <= a.n; i += W) {
    total = total + group(a.end_x + i, a.end_y + i, a.cell_x + i, a.cell_y + i,
                          a.neighbor_mask + i);
  }
  alignas(32) double lanes[W];
  V::store(lanes, total);
  double sum = 0.0;
  for (int l = 0; l < W; ++l) sum += lanes[l];
  if (i < a.n) {
    const size_t rem = a.n - i;
    alignas(32) double ex[W], ey[W];
    alignas(32) int32_t cx[W], cy[W], mk[W];
    for (int l = 0; l < W; ++l) {
      const size_t s = i + (static_cast<size_t>(l) < rem ? l : rem - 1);
      ex[l] = a.end_x[s];
      ey[l] = a.end_y[s];
      cx[l] = a.cell_x[s];
      cy[l] = a.cell_y[s];
      mk[l] = a.neighbor_mask[s];
    }
    V::store(lanes, group(ex, ey, cx, cy, mk));
    for (size_t l = 0; l < rem; ++l) sum += lanes[l];
  }
  return sum;
}

template <class V>
void min_obstacle_d2_impl(const NeighborArgs& a, double* out_d2) {
  constexpr int W = V::kWidth;
  const V ox = V::set1(a.origin_x), oy = V::set1(a.origin_y);
  const V res = V::set1(a.resolution);
  size_t i = 0;
  for (; i + W <= a.n; i += W) {
    V::store(out_d2 + i,
             neighbor_min_d2<V>(V::load(a.end_x + i), V::load(a.end_y + i),
                                V::from_i32(a.cell_x + i), V::from_i32(a.cell_y + i),
                                a.neighbor_mask + i, ox, oy, res));
  }
  if (i < a.n) {
    const size_t rem = a.n - i;
    alignas(32) double ex[W], ey[W], d2[W];
    alignas(32) int32_t cx[W], cy[W], mk[W];
    for (int l = 0; l < W; ++l) {
      const size_t s = i + (static_cast<size_t>(l) < rem ? l : rem - 1);
      ex[l] = a.end_x[s];
      ey[l] = a.end_y[s];
      cx[l] = a.cell_x[s];
      cy[l] = a.cell_y[s];
      mk[l] = a.neighbor_mask[s];
    }
    V::store(d2, neighbor_min_d2<V>(V::load(ex), V::load(ey), V::from_i32(cx),
                                    V::from_i32(cy), mk, ox, oy, res));
    for (size_t l = 0; l < rem; ++l) out_d2[i + l] = d2[l];
  }
}

template <class V>
void exp_array_impl(const double* x, double* out, size_t n) {
  constexpr int W = V::kWidth;
  size_t i = 0;
  for (; i + W <= n; i += W) V::store(out + i, exp_pd<V>(V::load(x + i)));
  if (i < n) {
    alignas(32) double buf[W];
    for (int l = 0; l < W; ++l) buf[l] = x[i + (static_cast<size_t>(l) < n - i ? l : 0)];
    V::store(buf, exp_pd<V>(V::load(buf)));
    for (size_t l = 0; l < n - i; ++l) out[i + l] = buf[l];
  }
}

}  // namespace lgv::simd
