#include "sim/world.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/arena.h"
#include "common/simd.h"
#include "sim/raycast_kernels.h"

namespace lgv::sim {

namespace {

/// What raycast_dir sets up before its first step from `cell`: the parametric
/// distance to the cell's next vertical / horizontal boundary, its increment
/// per cell, and the step direction on each axis. The fan sets its beams up
/// with the same function, so its lanes start from the same bits.
struct DdaStart {
  double t_max_x, t_max_y, t_delta_x, t_delta_y;
  int step_x, step_y;
};

DdaStart dda_start(const GridFrame& frame, CellIndex cell, const Point2D& from, double dx,
                   double dy) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double res = frame.resolution;
  const double cell_min_x = frame.origin.x + cell.x * res;
  const double cell_min_y = frame.origin.y + cell.y * res;
  return {dx != 0.0 ? ((dx > 0 ? cell_min_x + res : cell_min_x) - from.x) / dx : kInf,
          dy != 0.0 ? ((dy > 0 ? cell_min_y + res : cell_min_y) - from.y) / dy : kInf,
          dx != 0.0 ? res / std::abs(dx) : kInf,
          dy != 0.0 ? res / std::abs(dy) : kInf,
          dx > 0 ? 1 : -1,
          dy > 0 ? 1 : -1};
}

}  // namespace

World::World(double width_m, double height_m, double resolution) {
  frame_.origin = {0.0, 0.0};
  frame_.resolution = resolution;
  grid_ = Grid<uint8_t>(static_cast<int>(std::ceil(width_m / resolution)),
                        static_cast<int>(std::ceil(height_m / resolution)), 0);
  solid_ = Grid<uint8_t>(grid_.width() + 2, grid_.height() + 2, 1);
  for (int y = 0; y < grid_.height(); ++y) {
    for (int x = 0; x < grid_.width(); ++x) solid_.at(x + 1, y + 1) = 0;
  }
}

void World::set_cell(int x, int y, uint8_t value) {
  grid_.at(x, y) = value;
  solid_.at(x + 1, y + 1) = value;
}

bool World::occupied(const Point2D& p) const {
  const CellIndex c = frame_.world_to_cell(p);
  return occupied_cell(c);
}

bool World::occupied_cell(CellIndex c) const {
  if (!grid_.in_bounds(c)) return true;  // outside the map is solid
  return grid_.at(c) != 0;
}

bool World::in_bounds(const Point2D& p) const {
  return grid_.in_bounds(frame_.world_to_cell(p));
}

void World::set_occupied(const Point2D& p, bool value) {
  const CellIndex c = frame_.world_to_cell(p);
  if (grid_.in_bounds(c)) set_cell(c.x, c.y, value ? 1 : 0);
}

void World::add_box(const Point2D& min, const Point2D& max) {
  const CellIndex lo = frame_.world_to_cell(min);
  const CellIndex hi = frame_.world_to_cell(max);
  for (int y = std::max(0, lo.y); y <= std::min(grid_.height() - 1, hi.y); ++y) {
    for (int x = std::max(0, lo.x); x <= std::min(grid_.width() - 1, hi.x); ++x) {
      set_cell(x, y, 1);
    }
  }
}

void World::add_wall(const Point2D& a, const Point2D& b, double thickness) {
  const double len = distance(a, b);
  const int steps = std::max(1, static_cast<int>(len / (frame_.resolution * 0.5)));
  for (int i = 0; i <= steps; ++i) {
    const double t = static_cast<double>(i) / steps;
    const Point2D p = a + (b - a) * t;
    add_box({p.x - thickness / 2, p.y - thickness / 2},
            {p.x + thickness / 2, p.y + thickness / 2});
  }
}

void World::add_disc(const Point2D& center, double radius) {
  const CellIndex lo = frame_.world_to_cell({center.x - radius, center.y - radius});
  const CellIndex hi = frame_.world_to_cell({center.x + radius, center.y + radius});
  for (int y = std::max(0, lo.y); y <= std::min(grid_.height() - 1, hi.y); ++y) {
    for (int x = std::max(0, lo.x); x <= std::min(grid_.width() - 1, hi.x); ++x) {
      if (distance(frame_.cell_to_world({x, y}), center) <= radius) set_cell(x, y, 1);
    }
  }
}

void World::add_outer_walls(double thickness) {
  const double w = width_m(), h = height_m();
  add_box({0, 0}, {w, thickness});
  add_box({0, h - thickness}, {w, h});
  add_box({0, 0}, {thickness, h});
  add_box({w - thickness, 0}, {w, h});
}

double World::raycast_dir(const Point2D& from, double dx, double dy,
                          double max_range) const {
  // DDA traversal over the grid.
  CellIndex cell = frame_.world_to_cell(from);
  if (occupied_cell(cell)) return 0.0;
  const DdaStart s = dda_start(frame_, cell, from, dx, dy);
  double t_max_x = s.t_max_x, t_max_y = s.t_max_y;

  double t = 0.0;
  while (t <= max_range) {
    if (t_max_x < t_max_y) {
      t = t_max_x;
      t_max_x += s.t_delta_x;
      cell.x += s.step_x;
    } else {
      t = t_max_y;
      t_max_y += s.t_delta_y;
      cell.y += s.step_y;
    }
    if (t > max_range) break;
    if (occupied_cell(cell)) return t;
  }
  return max_range;
}

void World::raycast_fan(const Point2D& from, const double* dx, const double* dy,
                        size_t n, double max_range, double* ranges) const {
  const simd::Level level = simd::active_level();
  // The lanes index cells as int32.
  if (level == simd::Level::kScalar || solid_.size() > INT32_MAX) {
    for (size_t i = 0; i < n; ++i) ranges[i] = raycast_dir(from, dx[i], dy[i], max_range);
    return;
  }
  // What raycast_dir decides before its first step is the same for every
  // beam: a solid or off-map start, then the loop's entry test at t = 0.
  const CellIndex cell = frame_.world_to_cell(from);
  if (occupied_cell(cell)) {
    std::fill(ranges, ranges + n, 0.0);
    return;
  }
  if (!(0.0 <= max_range)) {
    std::fill(ranges, ranges + n, max_range);
    return;
  }
  Arena& arena = thread_scratch();
  const Arena::Scope scope(arena);
  double* t_max_x = arena.alloc_array<double>(n);
  double* t_max_y = arena.alloc_array<double>(n);
  double* t_delta_x = arena.alloc_array<double>(n);
  double* t_delta_y = arena.alloc_array<double>(n);
  double* step_x = arena.alloc_array<double>(n);
  double* step_y = arena.alloc_array<double>(n);
  const double row = solid_.width();
  for (size_t i = 0; i < n; ++i) {
    const DdaStart s = dda_start(frame_, cell, from, dx[i], dy[i]);
    t_max_x[i] = s.t_max_x;
    t_max_y[i] = s.t_max_y;
    t_delta_x[i] = s.t_delta_x;
    t_delta_y[i] = s.t_delta_y;
    step_x[i] = s.step_x;
    step_y[i] = s.step_y * row;
  }
  DdaFanArgs args;
  args.solid = solid_.data().data();
  args.start_index = static_cast<int64_t>(cell.y + 1) * solid_.width() + (cell.x + 1);
  args.max_range = max_range;
  args.n = n;
  args.t_max_x = t_max_x;
  args.t_max_y = t_max_y;
  args.t_delta_x = t_delta_x;
  args.t_delta_y = t_delta_y;
  args.step_x = step_x;
  args.step_y = step_y;
  args.out_range = ranges;
  dda_fan(level, args);
}

bool World::line_of_sight(const Point2D& a, const Point2D& b) const {
  const double d = distance(a, b);
  if (d < 1e-9) return !occupied(a);
  const double angle = std::atan2(b.y - a.y, b.x - a.x);
  return raycast_dir(a, std::cos(angle), std::sin(angle), d) >= d - 1e-9;
}

bool World::collides(const Point2D& p, double radius) const {
  const CellIndex lo = frame_.world_to_cell({p.x - radius, p.y - radius});
  const CellIndex hi = frame_.world_to_cell({p.x + radius, p.y + radius});
  for (int y = lo.y; y <= hi.y; ++y) {
    for (int x = lo.x; x <= hi.x; ++x) {
      if (!grid_.in_bounds(x, y)) return true;
      if (grid_.at(x, y) != 0 &&
          distance(frame_.cell_to_world({x, y}), p) <= radius + frame_.resolution * 0.5) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace lgv::sim
