// Planar geometry primitives shared by every subsystem: points, poses,
// rigid-body transforms and angle arithmetic on SO(2).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <iosfwd>
#include <vector>

namespace lgv {

/// Normalize an angle to the half-open interval (-pi, pi].
double normalize_angle(double a);

/// Shortest signed angular distance from `from` to `to`, in (-pi, pi].
double angle_diff(double to, double from);

/// A point in the plane, in meters.
struct Point2D {
  double x = 0.0;
  double y = 0.0;

  Point2D() = default;
  Point2D(double x_, double y_) : x(x_), y(y_) {}

  Point2D operator+(const Point2D& o) const { return {x + o.x, y + o.y}; }
  Point2D operator-(const Point2D& o) const { return {x - o.x, y - o.y}; }
  Point2D operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point2D& o) const = default;

  double norm() const { return std::hypot(x, y); }
  double squared_norm() const { return x * x + y * y; }
  double dot(const Point2D& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3D cross product (signed parallelogram area).
  double cross(const Point2D& o) const { return x * o.y - y * o.x; }
};

double distance(const Point2D& a, const Point2D& b);

/// A planar rigid-body pose (position + heading).
struct Pose2D {
  double x = 0.0;      ///< meters
  double y = 0.0;      ///< meters
  double theta = 0.0;  ///< radians, normalized to (-pi, pi]

  Pose2D() = default;
  Pose2D(double x_, double y_, double th) : x(x_), y(y_), theta(normalize_angle(th)) {}

  Point2D position() const { return {x, y}; }

  /// Express a point given in this pose's frame in the world frame.
  Point2D transform(const Point2D& local) const {
    const double c = std::cos(theta), s = std::sin(theta);
    return {x + c * local.x - s * local.y, y + s * local.x + c * local.y};
  }

  /// Express a world-frame point in this pose's frame.
  Point2D inverse_transform(const Point2D& world) const {
    const double c = std::cos(theta), s = std::sin(theta);
    const double dx = world.x - x, dy = world.y - y;
    return {c * dx + s * dy, -s * dx + c * dy};
  }

  /// Compose two poses: result = this ∘ other (other expressed in this frame).
  Pose2D compose(const Pose2D& other) const {
    const Point2D p = transform(other.position());
    return {p.x, p.y, theta + other.theta};
  }

  /// The pose of the world origin expressed in this pose's frame.
  Pose2D inverse() const {
    const double c = std::cos(theta), s = std::sin(theta);
    return {-(c * x + s * y), -(-s * x + c * y), -theta};
  }

  /// Relative pose that takes `this` to `target`: target = this ∘ result.
  Pose2D between(const Pose2D& target) const { return inverse().compose(target); }

  bool operator==(const Pose2D& o) const = default;
};

double distance(const Pose2D& a, const Pose2D& b);

/// Velocity command of a differential-drive base (ROS geometry_msgs/Twist subset).
struct Velocity2D {
  double linear = 0.0;   ///< m/s, along the robot's heading
  double angular = 0.0;  ///< rad/s, counter-clockwise positive

  bool operator==(const Velocity2D& o) const = default;
};

/// Integer cell index into a 2D grid.
struct CellIndex {
  int x = 0;
  int y = 0;
  bool operator==(const CellIndex& o) const = default;
};

/// Axis-aligned bounding box in meters.
struct BoundingBox {
  Point2D min;
  Point2D max;

  bool contains(const Point2D& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }
  void expand(const Point2D& p) {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
  }
  double width() const { return max.x - min.x; }
  double height() const { return max.y - min.y; }
};

/// Walks the cells of the integer Bresenham line from `from` to `to`, both
/// ends included, in order, calling `visit(cell, last)` on each; `last` is
/// true for `to` alone. Allocates nothing; returns the number of cells.
template <typename Visit>
size_t walk_line(CellIndex from, CellIndex to, Visit&& visit) {
  const int dx = std::abs(to.x - from.x);
  const int dy = std::abs(to.y - from.y);
  const int sx = from.x < to.x ? 1 : -1;
  const int sy = from.y < to.y ? 1 : -1;
  int err = dx - dy;
  CellIndex cur = from;
  size_t cells = 1;
  while (cur != to) {
    visit(cur, false);
    const int e2 = 2 * err;
    if (e2 > -dy) {
      err -= dy;
      cur.x += sx;
    }
    if (e2 < dx) {
      err += dx;
      cur.y += sy;
    }
    ++cells;
  }
  visit(cur, true);
  return cells;
}

/// Total arc length of a polyline.
double path_length(const std::vector<Point2D>& pts);

std::ostream& operator<<(std::ostream& os, const Point2D& p);
std::ostream& operator<<(std::ostream& os, const Pose2D& p);

}  // namespace lgv
