#include "sim/lidar.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"

namespace lgv::sim {

msg::LaserScan Lidar::scan(const World& world, const Pose2D& pose, double stamp) {
  msg::LaserScan s;
  s.header.stamp = stamp;
  s.header.frame_id = "base_scan";
  s.angle_min = -config_.fov_rad / 2.0;
  s.angle_max = config_.fov_rad / 2.0;
  s.angle_increment = config_.fov_rad / static_cast<double>(config_.beams);
  s.range_min = config_.min_range;
  s.range_max = config_.max_range;
  const size_t n = static_cast<size_t>(config_.beams);
  s.ranges.resize(n);

  Arena& arena = thread_scratch();
  const Arena::Scope scope(arena);
  double* dx = arena.alloc_array<double>(n);
  double* dy = arena.alloc_array<double>(n);
  double* cast = arena.alloc_array<double>(n);
  for (int i = 0; i < config_.beams; ++i) {
    const double beam_angle = pose.theta + s.angle_min + s.angle_increment * i;
    dx[i] = std::cos(beam_angle);
    dy[i] = std::sin(beam_angle);
  }
  world.raycast_fan(pose.position(), dx, dy, n, config_.max_range, cast);

  // Noise in beam order, so the RNG draws are those of a beam-by-beam scan.
  for (int i = 0; i < config_.beams; ++i) {
    double r = cast[i];
    if (r < config_.max_range) {
      r += rng_.gaussian(0.0, config_.range_noise_sigma);
      r = std::clamp(r, config_.min_range, config_.max_range);
      s.ranges[static_cast<size_t>(i)] = static_cast<float>(r);
    } else {
      // No return: encode as just beyond max_range, consumers treat as free.
      s.ranges[static_cast<size_t>(i)] = static_cast<float>(config_.max_range + 1.0);
    }
  }
  return s;
}

}  // namespace lgv::sim
