// World::raycast_fan against the per-beam DDA it must reproduce,
// World::raycast_dir, at every simd level this build and CPU can run: each
// range must be the same bytes (memcmp, so a −0.0 that turns into +0.0
// fails). Levels the host lacks are left out of levels(), as
// simd_kernels_test.cpp leaves them out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "sim/random_world.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace lgv::sim {
namespace {

std::vector<simd::Level> levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kSSE2) out.push_back(simd::Level::kSSE2);
  if (simd::detected_level() >= simd::Level::kAVX2) out.push_back(simd::Level::kAVX2);
  return out;
}

struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::clear_forced_level(); }
};

/// A fan of beams: the directions the fan casts and the per-beam reference.
struct Fan {
  std::vector<double> dx, dy, ref;
};

/// Explicit directions, referenced by raycast_dir().
Fan direction_fan(const World& w, const Point2D& from, const std::vector<double>& dx,
                  const std::vector<double>& dy, double max_range) {
  Fan f{dx, dy, {}};
  for (size_t i = 0; i < dx.size(); ++i) {
    f.ref.push_back(w.raycast_dir(from, dx[i], dy[i], max_range));
  }
  return f;
}

/// Beams at the given angles: directions (cos, sin), as the lidar casts them.
Fan angles_fan(const World& w, const Point2D& from, const std::vector<double>& angles,
               double max_range) {
  std::vector<double> dx, dy;
  for (double angle : angles) {
    dx.push_back(std::cos(angle));
    dy.push_back(std::sin(angle));
  }
  return direction_fan(w, from, dx, dy, max_range);
}

/// The lidar's fan: beam i at base + increment·i.
Fan angle_fan(const World& w, const Point2D& from, double base, double increment,
              size_t n, double max_range) {
  std::vector<double> angles;
  for (size_t i = 0; i < n; ++i) angles.push_back(base + increment * static_cast<double>(i));
  return angles_fan(w, from, angles, max_range);
}

/// Every level's fan equals the reference byte for byte.
void expect_fan_matches(const World& w, const Point2D& from, const Fan& f,
                        double max_range, const std::string& what) {
  const size_t n = f.ref.size();
  for (simd::Level level : levels()) {
    const ForcedLevel pin(level);
    std::vector<double> got(n, -12345.0);
    w.raycast_fan(from, f.dx.data(), f.dy.data(), n, max_range, got.data());
    if (std::memcmp(got.data(), f.ref.data(), n * sizeof(double)) == 0) continue;
    for (size_t i = 0; i < n; ++i) {
      if (std::memcmp(&got[i], &f.ref[i], sizeof(double)) != 0) {
        ADD_FAILURE() << what << " level=" << simd::level_name(level) << " from=("
                      << from.x << ", " << from.y << ") beam " << i << " dir=("
                      << f.dx[i] << ", " << f.dy[i] << ") max_range=" << max_range
                      << ": fan " << got[i] << " vs raycast " << f.ref[i];
        return;
      }
    }
  }
}

/// Random starts over `w` (inside and a little outside the map), each casting
/// the lidar's 360-beam fan at 3.5 m.
void check_world(const World& w, uint64_t seed, int starts, const std::string& what) {
  Rng rng(seed);
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  for (int s = 0; s < starts; ++s) {
    const Point2D from{rng.uniform(-0.2, w.width_m() + 0.2),
                       rng.uniform(-0.2, w.height_m() + 0.2)};
    const double theta = rng.uniform(-std::numbers::pi, std::numbers::pi);
    const Fan f = angle_fan(w, from, theta - kTwoPi / 2.0, kTwoPi / 360.0, 360, 3.5);
    expect_fan_matches(w, from, f, 3.5, what);
  }
}

TEST(RaycastFan, ScenarioWorldsMatchRaycast) {
  check_world(make_lab_scenario().world, 1, 60, "lab");
  check_world(make_office_scenario().world, 2, 60, "office");
  check_world(make_obstacle_course_scenario().world, 3, 60, "obstacle_course");
  check_world(make_open_scenario().world, 4, 60, "open");
  check_world(make_chaos_scenario().world, 5, 60, "chaos");
  check_world(make_fleet_scenario(3, 8).world, 6, 60, "fleet");
}

TEST(RaycastFan, RandomWorldsMatchRaycast) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    check_world(make_random_scenario(seed).world, 100 + seed, 15,
                "random seed " + std::to_string(seed));
  }
}

TEST(RaycastFan, SolidOrOffMapStartGivesZero) {
  World w(4.0, 3.0);
  w.add_box({1.0, 1.0}, {1.5, 1.5});
  for (const Point2D from : {Point2D{1.2, 1.2}, Point2D{-0.3, 1.0}, Point2D{1.0, -0.01},
                             Point2D{4.2, 1.0}, Point2D{2.0, 3.5}}) {
    const Fan f = angle_fan(w, from, -3.0, 0.37, 17, 3.5);
    for (double r : f.ref) ASSERT_EQ(r, 0.0);
    expect_fan_matches(w, from, f, 3.5, "solid/off-map start");
  }
}

TEST(RaycastFan, BoundaryStartKeepsNegativeZero) {
  // 0.5 = 10 × 0.05 on both axes: the start is the lower-left corner of cell
  // (10, 10), so a beam with a negative component has t_max = 0/negative =
  // −0.0 on that axis.
  World w(2.0, 2.0);
  w.set_occupied({0.475, 0.525});  // cell (9, 10): left of the start
  w.set_occupied({0.475, 0.475});  // cell (9, 9): diagonally below-left
  w.set_occupied({0.525, 0.425});  // cell (10, 8): below, one cell further
  const Point2D from{0.5, 0.5};
  // The third-quadrant diagonal ties at −0.0 on both axes: y steps first
  // (into free cell (10, 9)), then x keeps its −0.0 into solid cell (9, 9).
  const double d = std::sqrt(0.5);
  const std::vector<double> dx{-d, -1.0, -d}, dy{-d, -0.0, -1.0};
  for (double max_range : {3.5, 0.0}) {
    const Fan fan =
        angle_fan(w, from, std::numbers::pi * 0.5, std::numbers::pi / 64.0, 64, max_range);
    const Fan diag = direction_fan(w, from, dx, dy, max_range);
    size_t negative_zeros = 0;
    for (double r : fan.ref) negative_zeros += (r == 0.0 && std::signbit(r)) ? 1 : 0;
    ASSERT_GE(negative_zeros, 3u) << "the start must sit on the boundaries";
    ASSERT_TRUE(diag.ref[0] == 0.0 && std::signbit(diag.ref[0]))
        << "the diagonal tie must reach (9, 9) at -0.0";
    const std::string what = "boundary start, max_range " + std::to_string(max_range);
    expect_fan_matches(w, from, fan, max_range, what);
    expect_fan_matches(w, from, diag, max_range, what);
  }
}

TEST(RaycastFan, AxisAlignedAndTiedDirections) {
  // Speckled world: ties (t_max_x == t_max_y) step in y, and whether x or y
  // goes first decides which of two different cells a beam meets.
  World w(3.0, 3.0);
  Rng rng(7);
  for (int y = 0; y < 60; ++y) {
    for (int x = 0; x < 60; ++x) {
      if (rng.uniform() < 0.3) w.set_occupied({x * 0.05 + 0.025, y * 0.05 + 0.025});
    }
  }
  const double d = std::sqrt(0.5);
  const std::vector<double> dx{1.0, -1.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.0, d, -d, d, -d};
  const std::vector<double> dy{0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 0.0, -0.0, d, d, -d, -d};
  size_t casts = 0, hits = 0;
  for (int c = 0; c < 60; ++c) {
    // Equal x and y coordinates: a diagonal beam ties at every corner.
    const double on_center = c * 0.05 + 0.025, on_corner = c * 0.05;
    for (const Point2D from : {Point2D{on_center, on_center}, Point2D{on_corner, on_corner},
                               Point2D{on_center, on_corner}}) {
      if (w.occupied(from)) continue;
      const Fan f = direction_fan(w, from, dx, dy, 3.5);
      for (double r : f.ref) hits += r < 3.5 ? 1 : 0;
      casts += f.ref.size();
      expect_fan_matches(w, from, f, 3.5, "axis/tie directions");
    }
    // Angles whose sine is exactly +0.0 and −0.0.
    const Point2D from{on_center, 1.5};
    if (!w.occupied(from)) {
      expect_fan_matches(w, from, angles_fan(w, from, {0.0, -0.0}, 3.5), 3.5, "angle ±0");
    }
  }
  EXPECT_GT(casts, 500u);
  EXPECT_GT(hits, casts / 2);
}

TEST(RaycastFan, MaxRangeExtremes) {
  const Scenario lab = make_lab_scenario();
  const World& w = lab.world;
  const double diagonal = std::hypot(w.width_m(), w.height_m());
  const double half_cell = w.frame().resolution / 2.0;
  Rng rng(11);
  for (double max_range : {0.0, half_cell, 3.5, diagonal + 1.0, -1.0}) {
    for (int s = 0; s < 20; ++s) {
      const Point2D from{rng.uniform(0.0, w.width_m()), rng.uniform(0.0, w.height_m())};
      const Fan f = angle_fan(w, from, rng.uniform(-3.2, 3.2), 0.0174533, 360, max_range);
      expect_fan_matches(w, from, f, max_range, "max_range " + std::to_string(max_range));
    }
  }
}

TEST(RaycastFan, ShortFansUseTailLanes) {
  const Scenario office = make_office_scenario();
  const World& w = office.world;
  Rng rng(13);
  for (size_t n = 1; n <= 9; ++n) {
    for (int s = 0; s < 40; ++s) {
      const Point2D from{rng.uniform(0.0, w.width_m()), rng.uniform(0.0, w.height_m())};
      const Fan f = angle_fan(w, from, rng.uniform(-3.2, 3.2), 0.7, n, 3.5);
      expect_fan_matches(w, from, f, 3.5, std::to_string(n) + "-beam fan");
    }
  }
}

}  // namespace
}  // namespace lgv::sim
