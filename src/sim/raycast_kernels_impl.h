// Templated body of the fan ray-cast; instantiated per ISA TU with the
// simd_vec.h wrappers. See raycast_kernels.h for the exactness contract.
//
// Lanes are refilled, not blocked: when a beam ends, its lane takes the next
// beam of the fan at once (blended in from the set-up arrays), so one long
// beam does not hold W − 1 finished lanes idle. A lane with no beam left
// parks on the start cell, which is free, with zero steps, so its probe stays
// in bounds until the last beam ends.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/simd_vec.h"
#include "sim/raycast_kernels.h"

namespace lgv::sim {

template <class V>
void dda_fan_impl(const DdaFanArgs& a) {
  constexpr int W = V::kWidth;
  // lane_bits[l] selects lane l alone.
  alignas(32) double lane_bits[W][W] = {};
  for (int l = 0; l < W; ++l) lane_bits[l][l] = std::bit_cast<double>(~uint64_t{0});

  const V start = V::set1(static_cast<double>(a.start_index));
  V tmx = V::zero(), tmy = V::zero(), tdx = V::zero(), tdy = V::zero();
  V sx = V::zero(), sy = V::zero();
  V idx = start;  // flat index into a.solid, an integer-valued double
  size_t beam[W] = {};
  int live = 0;  // bit l: lane l is casting beam[l]
  size_t next = 0;

  const auto take_next_beam = [&](int l) {
    const V lane = V::load(lane_bits[l]);
    idx = V::select(lane, start, idx);
    if (next == a.n) {
      sx = V::select(lane, V::zero(), sx);
      sy = V::select(lane, V::zero(), sy);
      live &= ~(1 << l);
      return;
    }
    const size_t b = next++;
    tmx = V::select(lane, V::set1(a.t_max_x[b]), tmx);
    tmy = V::select(lane, V::set1(a.t_max_y[b]), tmy);
    tdx = V::select(lane, V::set1(a.t_delta_x[b]), tdx);
    tdy = V::select(lane, V::set1(a.t_delta_y[b]), tdy);
    sx = V::select(lane, V::set1(a.step_x[b]), sx);
    sy = V::select(lane, V::set1(a.step_y[b]), sy);
    beam[l] = b;
    live |= 1 << l;
  };
  for (int l = 0; l < W; ++l) take_next_beam(l);

  const V vmax = V::set1(a.max_range);
  alignas(32) double tb[W];
  alignas(32) int32_t cell[W];
  while (live != 0) {
    // One DDA step per lane: x on a strict t_max_x < t_max_y, else y.
    // min(a, b) is exactly a < b ? a : b, NaN and ±0 included.
    const V step_x = V::cmp_lt(tmx, tmy);
    const V t = V::min(tmx, tmy);
    tmx = V::select(step_x, tmx + tdx, tmx);
    tmy = V::select(step_x, tmy, tmy + tdy);
    idx = idx + V::select(step_x, sx, sy);
    V::store_floor_i32(cell, idx);
    int hit = 0;
    for (int l = 0; l < W; ++l) hit |= a.solid[cell[l]] << l;
    // A beam ends past max_range (whatever its cell), on a solid cell, or on
    // a NaN t, which fails the scalar loop's t <= max_range test.
    const int done = (hit | ~V::movemask(V::cmp_le(t, vmax))) & live;
    if (done == 0) continue;

    const int beyond = V::movemask(V::cmp_gt(t, vmax));
    V::store(tb, t);
    for (unsigned bits = static_cast<unsigned>(done); bits != 0; bits &= bits - 1) {
      const int l = std::countr_zero(bits);
      const bool at_t = (beyond >> l & 1) == 0 && (hit >> l & 1) != 0;
      a.out_range[beam[l]] = at_t ? tb[l] : a.max_range;
      take_next_beam(l);
    }
  }
}

}  // namespace lgv::sim
