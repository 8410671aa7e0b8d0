#include "sim/lidar.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numbers>
#include <vector>

#include "common/simd.h"
#include "sim/scenario.h"

namespace lgv::sim {
namespace {

TEST(Lidar, ProducesConfiguredBeamCount) {
  World w(10.0, 10.0);
  Lidar lidar;
  const msg::LaserScan s = lidar.scan(w, {5.0, 5.0, 0.0}, 1.5);
  EXPECT_EQ(s.ranges.size(), 360u);
  EXPECT_DOUBLE_EQ(s.header.stamp, 1.5);
  EXPECT_NEAR(s.angle_max - s.angle_min, 2.0 * std::numbers::pi, 1e-9);
}

TEST(Lidar, OpenSpaceReportsNoReturn) {
  World w(100.0, 100.0);
  LidarConfig cfg;
  cfg.range_noise_sigma = 0.0;
  Lidar lidar(cfg);
  const msg::LaserScan s = lidar.scan(w, {50.0, 50.0, 0.0}, 0.0);
  for (float r : s.ranges) EXPECT_GT(r, s.range_max);
}

TEST(Lidar, WallAheadMeasuredAccurately) {
  World w(10.0, 10.0);
  w.add_box({7.0, 0.0}, {7.3, 10.0});
  LidarConfig cfg;
  cfg.range_noise_sigma = 0.0;
  Lidar lidar(cfg);
  const msg::LaserScan s = lidar.scan(w, {5.0, 5.0, 0.0}, 0.0);
  // Beam pointing forward (angle 0 relative to pose) is at index beams/2.
  const size_t fwd = s.ranges.size() / 2;
  EXPECT_NEAR(s.ranges[fwd], 2.0, 0.1);
}

TEST(Lidar, RotatedPoseRotatesScan) {
  World w(10.0, 10.0);
  w.add_box({7.0, 0.0}, {7.3, 10.0});  // wall to the east
  LidarConfig cfg;
  cfg.range_noise_sigma = 0.0;
  Lidar lidar(cfg);
  // Facing north: the wall is to the right (relative angle -pi/2).
  const msg::LaserScan s =
      lidar.scan(w, {5.0, 5.0, std::numbers::pi / 2.0}, 0.0);
  const size_t right = s.ranges.size() / 4;  // angle_min + quarter of fov
  EXPECT_NEAR(s.ranges[right], 2.0, 0.15);
}

TEST(Lidar, NoiseIsBoundedAndDeterministic) {
  World w(10.0, 10.0);
  w.add_box({7.0, 0.0}, {7.3, 10.0});
  Lidar a({}, 42), b({}, 42);
  const msg::LaserScan sa = a.scan(w, {5.0, 5.0, 0.0}, 0.0);
  const msg::LaserScan sb = b.scan(w, {5.0, 5.0, 0.0}, 0.0);
  EXPECT_EQ(sa.ranges, sb.ranges);
}

TEST(Lidar, RangesClampedToValidInterval) {
  World w(10.0, 10.0);
  w.add_disc({5.1, 5.0}, 0.05);  // obstacle almost touching the sensor
  Lidar lidar;
  const msg::LaserScan s = lidar.scan(w, {5.0, 5.0, 0.0}, 0.0);
  for (float r : s.ranges) {
    // float storage may round the clamped min down by one ULP.
    if (r <= s.range_max) EXPECT_GE(r, s.range_min - 1e-6);
  }
}

TEST(Lidar, ScanIdenticalAtEveryLevel) {
  // A scalar-pinned lidar and one at each vector level, same seed, along the
  // same lab path: byte-equal ranges on every scan also pin the noise draws.
  const Scenario lab = make_lab_scenario();
  const auto path_scans = [&](simd::Level level) {
    simd::force_level(level);
    Lidar lidar({}, 99);
    std::vector<msg::LaserScan> scans;
    for (int k = 0; k < 100; ++k) {
      const double f = k / 99.0;
      const Pose2D pose{lab.start.x + (lab.goal.x - lab.start.x) * f,
                        lab.start.y + (lab.goal.y - lab.start.y) * f, 0.07 * k};
      scans.push_back(lidar.scan(lab.world, pose, 0.2 * k));
    }
    simd::clear_forced_level();
    return scans;
  };
  const std::vector<msg::LaserScan> ref = path_scans(simd::Level::kScalar);
  for (simd::Level level : {simd::Level::kSSE2, simd::Level::kAVX2}) {
    if (simd::detected_level() < level) continue;
    const std::vector<msg::LaserScan> got = path_scans(level);
    for (size_t k = 0; k < ref.size(); ++k) {
      ASSERT_EQ(got[k].ranges.size(), ref[k].ranges.size());
      EXPECT_EQ(std::memcmp(got[k].ranges.data(), ref[k].ranges.data(),
                            ref[k].ranges.size() * sizeof(float)),
                0)
          << simd::level_name(level) << " scan " << k;
    }
  }
}

}  // namespace
}  // namespace lgv::sim
