#include "common/geometry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace lgv {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(NormalizeAngle, IdentityInsideRange) {
  EXPECT_DOUBLE_EQ(normalize_angle(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_angle(1.0), 1.0);
  EXPECT_DOUBLE_EQ(normalize_angle(-1.0), -1.0);
}

TEST(NormalizeAngle, WrapsLargeAngles) {
  EXPECT_NEAR(normalize_angle(2.0 * kPi), 0.0, 1e-12);
  EXPECT_NEAR(normalize_angle(3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(normalize_angle(-3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(normalize_angle(5.5 * kPi), -0.5 * kPi, 1e-12);
}

TEST(NormalizeAngle, ResultAlwaysInHalfOpenInterval) {
  for (double a = -50.0; a < 50.0; a += 0.37) {
    const double n = normalize_angle(a);
    EXPECT_GT(n, -kPi - 1e-12) << a;
    EXPECT_LE(n, kPi + 1e-12) << a;
    // Same direction as the original angle.
    EXPECT_NEAR(std::sin(n), std::sin(a), 1e-9);
    EXPECT_NEAR(std::cos(n), std::cos(a), 1e-9);
  }
}

TEST(AngleDiff, ShortestPath) {
  EXPECT_NEAR(angle_diff(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(-kPi + 0.1, kPi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(kPi - 0.1, -kPi + 0.1), -0.2, 1e-12);
}

TEST(Point2D, Arithmetic) {
  const Point2D a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(a + b, Point2D(4.0, 1.0));
  EXPECT_EQ(b - a, Point2D(2.0, -3.0));
  EXPECT_EQ(a * 2.0, Point2D(2.0, 4.0));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ(Point2D(3.0, 4.0).norm(), 5.0);
}

TEST(Pose2D, TransformRoundTrip) {
  const Pose2D pose{2.0, -1.0, 0.7};
  const Point2D local{0.5, 1.5};
  const Point2D world = pose.transform(local);
  const Point2D back = pose.inverse_transform(world);
  EXPECT_NEAR(back.x, local.x, 1e-12);
  EXPECT_NEAR(back.y, local.y, 1e-12);
}

TEST(Pose2D, ComposeWithInverseIsIdentity) {
  const Pose2D pose{1.2, 3.4, -2.1};
  const Pose2D ident = pose.compose(pose.inverse());
  EXPECT_NEAR(ident.x, 0.0, 1e-12);
  EXPECT_NEAR(ident.y, 0.0, 1e-12);
  EXPECT_NEAR(ident.theta, 0.0, 1e-12);
}

TEST(Pose2D, BetweenRecoversTarget) {
  const Pose2D a{1.0, 2.0, 0.3};
  const Pose2D b{-2.0, 0.5, -1.2};
  const Pose2D delta = a.between(b);
  const Pose2D recovered = a.compose(delta);
  EXPECT_NEAR(recovered.x, b.x, 1e-12);
  EXPECT_NEAR(recovered.y, b.y, 1e-12);
  EXPECT_NEAR(angle_diff(recovered.theta, b.theta), 0.0, 1e-12);
}

TEST(Pose2D, TransformRotates) {
  const Pose2D pose{0.0, 0.0, kPi / 2.0};
  const Point2D p = pose.transform({1.0, 0.0});
  EXPECT_NEAR(p.x, 0.0, 1e-12);
  EXPECT_NEAR(p.y, 1.0, 1e-12);
}

// The cells walk_line visits, in order; checks that `last` marks the final
// cell alone and that the returned count matches.
std::vector<CellIndex> line_cells(CellIndex from, CellIndex to) {
  std::vector<CellIndex> cells;
  size_t lasts = 0;
  const size_t count = walk_line(from, to, [&](CellIndex c, bool last) {
    cells.push_back(c);
    if (last) ++lasts;
  });
  EXPECT_EQ(count, cells.size());
  EXPECT_EQ(lasts, 1u);
  return cells;
}

TEST(Bresenham, HorizontalLine) {
  const auto cells = line_cells({0, 0}, {4, 0});
  ASSERT_EQ(cells.size(), 5u);
  for (int i = 0; i <= 4; ++i) EXPECT_EQ(cells[static_cast<size_t>(i)], (CellIndex{i, 0}));
}

TEST(Bresenham, DiagonalLine) {
  const auto cells = line_cells({0, 0}, {3, 3});
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells.front(), (CellIndex{0, 0}));
  EXPECT_EQ(cells.back(), (CellIndex{3, 3}));
}

TEST(Bresenham, SingleCell) {
  const auto cells = line_cells({2, 2}, {2, 2});
  ASSERT_EQ(cells.size(), 1u);
}

TEST(Bresenham, EndpointsAlwaysIncludedAndConnected) {
  const CellIndex from{1, -2};
  for (int x = -6; x <= 6; x += 3) {
    for (int y = -6; y <= 6; y += 2) {
      const CellIndex to{x, y};
      const auto cells = line_cells(from, to);
      ASSERT_FALSE(cells.empty());
      EXPECT_EQ(cells.front(), from);
      EXPECT_EQ(cells.back(), to);
      for (size_t i = 1; i < cells.size(); ++i) {
        EXPECT_LE(std::abs(cells[i].x - cells[i - 1].x), 1);
        EXPECT_LE(std::abs(cells[i].y - cells[i - 1].y), 1);
      }
    }
  }
}

TEST(BoundingBox, ContainsAndExpand) {
  BoundingBox box{{0, 0}, {1, 1}};
  EXPECT_TRUE(box.contains({0.5, 0.5}));
  EXPECT_FALSE(box.contains({1.5, 0.5}));
  box.expand({2.0, -1.0});
  EXPECT_TRUE(box.contains({1.5, 0.0}));
  EXPECT_DOUBLE_EQ(box.width(), 2.0);
  EXPECT_DOUBLE_EQ(box.height(), 2.0);
}

TEST(PathLength, Polyline) {
  EXPECT_DOUBLE_EQ(path_length({}), 0.0);
  EXPECT_DOUBLE_EQ(path_length({{0, 0}}), 0.0);
  EXPECT_DOUBLE_EQ(path_length({{0, 0}, {3, 4}, {3, 5}}), 6.0);
}

}  // namespace
}  // namespace lgv
