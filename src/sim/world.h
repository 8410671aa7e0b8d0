// The physical environment: a static 2D occupancy world the robot drives in
// and the lidar ray-casts against. Stands in for the paper's lab and for the
// Intel Research Lab dataset's building (see DESIGN.md substitutions).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/geometry.h"
#include "common/grid.h"

namespace lgv::sim {

/// Static binary occupancy world (true = solid).
class World {
 public:
  World(double width_m, double height_m, double resolution = 0.05);

  const GridFrame& frame() const { return frame_; }
  const Grid<uint8_t>& grid() const { return grid_; }
  double width_m() const { return grid_.width() * frame_.resolution; }
  double height_m() const { return grid_.height() * frame_.resolution; }

  bool occupied(const Point2D& p) const;
  bool occupied_cell(CellIndex c) const;
  bool in_bounds(const Point2D& p) const;

  // ---- construction helpers ----
  void set_occupied(const Point2D& p, bool value = true);
  /// Solid axis-aligned rectangle [min, max].
  void add_box(const Point2D& min, const Point2D& max);
  /// Wall of the given thickness from a to b.
  void add_wall(const Point2D& a, const Point2D& b, double thickness = 0.1);
  /// Solid disc.
  void add_disc(const Point2D& center, double radius);
  /// One-cell border around the whole map.
  void add_outer_walls(double thickness = 0.1);

  /// Distance from `from` along the direction (dx, dy) = (cos, sin) of a
  /// beam angle to the first solid cell, capped at max_range. DDA grid
  /// traversal — the lidar beam model, and the fan's scalar reference loop.
  double raycast_dir(const Point2D& from, double dx, double dy, double max_range) const;
  /// ranges[i] = raycast_dir(from, dx[i], dy[i], max_range) for n beams, bit
  /// for bit. At a vector simd level the beams are cast lane-parallel
  /// (sim/raycast_kernels.h).
  void raycast_fan(const Point2D& from, const double* dx, const double* dy, size_t n,
                   double max_range, double* ranges) const;

  /// True when the straight segment a→b crosses no solid cell.
  bool line_of_sight(const Point2D& a, const Point2D& b) const;

  /// True when a robot footprint (disc of `radius`) centered at p collides.
  bool collides(const Point2D& p, double radius) const;

 private:
  /// The one write path to the cells: keeps grid_ and solid_ equal.
  void set_cell(int x, int y, uint8_t value);

  GridFrame frame_;
  Grid<uint8_t> grid_;
  /// grid_ inside a one-cell solid border ((w+2)×(h+2), cell (x, y) at
  /// (x+1, y+1)): a beam that leaves the map stops on the border, so the fan
  /// probes cells without a bounds test.
  Grid<uint8_t> solid_;
};

}  // namespace lgv::sim
