#include "common/geometry.h"

#include <numbers>
#include <ostream>

namespace lgv {

double normalize_angle(double a) {
  constexpr double two_pi = 2.0 * std::numbers::pi;
  a = std::fmod(a, two_pi);
  if (a > std::numbers::pi) a -= two_pi;
  if (a <= -std::numbers::pi) a += two_pi;
  return a;
}

double angle_diff(double to, double from) { return normalize_angle(to - from); }

double distance(const Point2D& a, const Point2D& b) { return (a - b).norm(); }

double distance(const Pose2D& a, const Pose2D& b) {
  return distance(a.position(), b.position());
}

double path_length(const std::vector<Point2D>& pts) {
  double len = 0.0;
  for (size_t i = 1; i < pts.size(); ++i) len += distance(pts[i - 1], pts[i]);
  return len;
}

std::ostream& operator<<(std::ostream& os, const Point2D& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

std::ostream& operator<<(std::ostream& os, const Pose2D& p) {
  return os << "(" << p.x << ", " << p.y << "; " << p.theta << ")";
}

}  // namespace lgv
