// Lane-parallel DDA for a fan of lidar beams that share one start cell
// (World::raycast_fan). Each lane replays World::raycast_dir's loop one
// operation at a time from that function's own set-up: the strict
// t_max_x < t_max_y test (a tie steps in y), the range test before the
// occupancy test, and the idle axis kept by selection, never by adding 0.0
// (which would turn a −0.0 t_max into +0.0). Every range is therefore
// bit-identical to the scalar loop; see docs/kernels.md, "Lidar fan
// ray-cast".
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace lgv::sim {

struct DdaFanArgs {
  /// World occupancy inside a one-cell solid border, row-major, 1 = solid,
  /// 0 = free. A lane stops on the first solid cell, so it never probes past
  /// the border.
  const uint8_t* solid = nullptr;
  /// The shared start cell's index in `solid`: free and inside the map (the
  /// caller answers the other starts).
  int64_t start_index = 0;
  double max_range = 0.0;  ///< >= 0; the caller answers the other values
  /// Per beam, World::raycast_dir's set-up: t_max and t_delta on each axis,
  /// and the step on each axis as an index offset into `solid` (±1 in x,
  /// ±row length in y). Beam i's range goes to out_range[i].
  size_t n = 0;
  const double* t_max_x = nullptr;
  const double* t_max_y = nullptr;
  const double* t_delta_x = nullptr;
  const double* t_delta_y = nullptr;
  const double* step_x = nullptr;
  const double* step_y = nullptr;
  double* out_range = nullptr;
};

/// Cast every beam of `args`. `level` must be a vector level; the scalar
/// reference loop is World::raycast_dir.
void dda_fan(simd::Level level, const DdaFanArgs& args);

namespace detail {
void dda_fan_sse2(const DdaFanArgs& args);
void dda_fan_avx2(const DdaFanArgs& args);
}  // namespace detail

}  // namespace lgv::sim
