#include "sim/world.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace lgv::sim {
namespace {

/// The range along a beam angle, cast as the lidar casts it.
double raycast(const World& w, const Point2D& from, double angle, double max_range) {
  return w.raycast_dir(from, std::cos(angle), std::sin(angle), max_range);
}

TEST(World, EmptyWorldIsFree) {
  World w(5.0, 5.0);
  EXPECT_FALSE(w.occupied({2.5, 2.5}));
  EXPECT_TRUE(w.in_bounds({2.5, 2.5}));
  EXPECT_FALSE(w.in_bounds({6.0, 2.5}));
}

TEST(World, OutsideIsSolid) {
  World w(5.0, 5.0);
  EXPECT_TRUE(w.occupied({-1.0, 2.0}));
  EXPECT_TRUE(w.occupied({2.0, 7.0}));
}

TEST(World, AddBoxMarksCells) {
  World w(5.0, 5.0);
  w.add_box({1.0, 1.0}, {2.0, 2.0});
  EXPECT_TRUE(w.occupied({1.5, 1.5}));
  EXPECT_FALSE(w.occupied({3.0, 3.0}));
}

TEST(World, AddDiscRespectsRadius) {
  World w(5.0, 5.0);
  w.add_disc({2.5, 2.5}, 0.5);
  EXPECT_TRUE(w.occupied({2.5, 2.5}));
  EXPECT_TRUE(w.occupied({2.9, 2.5}));
  EXPECT_FALSE(w.occupied({3.3, 2.5}));
}

TEST(World, OuterWallsEnclose) {
  World w(5.0, 5.0);
  w.add_outer_walls(0.1);
  EXPECT_TRUE(w.occupied({0.05, 2.5}));
  EXPECT_TRUE(w.occupied({4.97, 2.5}));
  EXPECT_TRUE(w.occupied({2.5, 0.05}));
  EXPECT_TRUE(w.occupied({2.5, 4.97}));
  EXPECT_FALSE(w.occupied({2.5, 2.5}));
}

TEST(World, RaycastHitsWall) {
  World w(10.0, 10.0);
  w.add_box({5.0, 0.0}, {5.2, 10.0});
  const double r = raycast(w, {1.0, 5.0}, 0.0, 8.0);
  EXPECT_NEAR(r, 4.0, 0.1);
}

TEST(World, RaycastMaxRangeWhenClear) {
  World w(10.0, 10.0);
  EXPECT_DOUBLE_EQ(raycast(w, {5.0, 5.0}, 0.7, 2.0), 2.0);
}

TEST(World, RaycastDirectional) {
  World w(10.0, 10.0);
  w.add_box({5.0, 4.0}, {5.4, 6.0});
  constexpr double pi = std::numbers::pi;
  EXPECT_LT(raycast(w, {3.0, 5.0}, 0.0, 8.0), 2.5);       // east: hits
  EXPECT_DOUBLE_EQ(raycast(w, {3.0, 5.0}, pi, 2.5), 2.5); // west: clear
}

TEST(World, RaycastFromInsideObstacleIsZero) {
  World w(10.0, 10.0);
  w.add_box({4.0, 4.0}, {6.0, 6.0});
  EXPECT_DOUBLE_EQ(raycast(w, {5.0, 5.0}, 0.0, 8.0), 0.0);
}

TEST(World, RaycastAccuracyAcrossAngles) {
  World w(20.0, 20.0);
  w.add_disc({10.0, 10.0}, 2.0);
  constexpr double pi = std::numbers::pi;
  // From any direction, the disc surface is ~3 m from a point 5 m out.
  for (double a = 0.0; a < 2.0 * pi; a += pi / 7.0) {
    const Point2D from{10.0 + 5.0 * std::cos(a), 10.0 + 5.0 * std::sin(a)};
    const double heading = std::atan2(10.0 - from.y, 10.0 - from.x);
    const double r = raycast(w, from, heading, 10.0);
    EXPECT_NEAR(r, 3.0, 0.15) << "angle " << a;
  }
}

TEST(World, LineOfSight) {
  World w(10.0, 10.0);
  w.add_box({5.0, 0.0}, {5.2, 10.0});
  EXPECT_FALSE(w.line_of_sight({1.0, 5.0}, {9.0, 5.0}));
  EXPECT_TRUE(w.line_of_sight({1.0, 1.0}, {4.0, 9.0}));
}

TEST(World, CollisionFootprint) {
  World w(10.0, 10.0);
  w.add_box({5.0, 5.0}, {5.1, 5.1});
  EXPECT_TRUE(w.collides({5.05, 5.05}, 0.1));
  EXPECT_TRUE(w.collides({5.25, 5.05}, 0.2));  // footprint overlaps
  EXPECT_FALSE(w.collides({6.0, 6.0}, 0.2));
}

}  // namespace
}  // namespace lgv::sim
