// Layered costmap in the style of ROS costmap_2d [43]: a static map layer, an
// obstacle layer that marks lidar hits and ray-trace-clears free space, and
// an inflation layer that spreads cost outward from lethal cells. This is the
// CostmapGen node — an Energy-Critical Node in both workloads (Table II) and
// the first hop of the Velocity-Dependent Path.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/grid.h"
#include "msg/messages.h"
#include "perception/occupancy_grid.h"

namespace lgv::perception {

// Cost value conventions (costmap_2d compatible).
inline constexpr uint8_t kCostLethal = 254;
inline constexpr uint8_t kCostInscribed = 253;
inline constexpr uint8_t kCostFreeSpace = 0;
inline constexpr uint8_t kCostNoInformation = 255;

struct CostmapConfig {
  double resolution = 0.05;      ///< m/cell
  double inflation_radius = 0.4; ///< m beyond which no cost is added
  double inscribed_radius = 0.11;///< robot footprint radius
  double cost_scaling = 6.0;     ///< exponential decay rate of inflated cost
  double raytrace_range = 3.5;   ///< max clearing distance
  double obstacle_range = 3.3;   ///< max marking distance
  bool track_unknown = true;     ///< unknown cells get kCostNoInformation
};

struct CostmapUpdateStats {
  size_t raytraced_cells = 0;   ///< obstacle-layer work units
  size_t inflated_cells = 0;    ///< inflation-layer work units
};

class Costmap2D {
 public:
  Costmap2D() = default;
  /// At most 65535 cells per side (the inflation queue packs coordinates
  /// into 16 bits); larger maps throw std::length_error.
  Costmap2D(Point2D origin, double width_m, double height_m, CostmapConfig config = {});

  const CostmapConfig& config() const { return config_; }
  const GridFrame& frame() const { return frame_; }
  int width() const { return cost_.width(); }
  int height() const { return cost_.height(); }

  uint8_t cost_at(CellIndex c) const;
  uint8_t cost_at_world(const Point2D& p) const;
  /// Combined + inflated master grid; raw view for vectorized probe loops
  /// (off-grid probes must yield kCostLethal, matching cost_at).
  const Grid<uint8_t>& master() const { return cost_; }
  bool is_lethal(CellIndex c) const { return cost_at(c) >= kCostInscribed; }
  /// Traversable for planning: known and below the inscribed threshold.
  bool is_traversable(CellIndex c) const;

  /// Load the static layer from a SLAM map / ground-truth map message.
  void set_static_map(const msg::OccupancyGridMsg& map);

  /// Obstacle layer + inflation update from one scan at `pose`.
  CostmapUpdateStats update(const Pose2D& pose, const msg::LaserScan& scan);

  /// Re-run inflation from scratch (also called by update()). Returns the
  /// number of cells the wavefront dequeued.
  size_t inflate();

  msg::OccupancyGridMsg to_msg(double stamp) const;

 private:
  /// Per axis, the distinct values of |world(a + k) - world(a)| between
  /// cell centres a and a + k, |k| <= max_steps_ (docs/kernels.md,
  /// "Costmap inflation").
  struct AxisClasses {
    std::vector<uint16_t> of;  ///< class of (a, k) at [a * (2 * max_steps_ + 1) + k + max_steps_]
    std::vector<double> value; ///< the exact |Δ| of each class
  };
  AxisClasses classify_axis(int cells, bool y_axis) const;

  void mark_and_clear(const Pose2D& pose, const msg::LaserScan& scan,
                      CostmapUpdateStats& stats);
  uint8_t inflation_cost(double distance_m) const;
  /// Runs the radius test and inflation_cost for the class pair (cx, cy)
  /// and memoizes the result: kOutsideRadius when the distance exceeds the
  /// inflation radius, else the cost.
  uint8_t fill_pair(uint16_t cx, uint16_t cy);

  GridFrame frame_;
  CostmapConfig config_;
  Grid<uint8_t> static_layer_;   ///< kCostLethal / kCostFreeSpace / kCostNoInformation
  /// kCostLethal where lidar currently sees obstacles, kCostFreeSpace where a
  /// beam has raytraced through, kCostNoInformation where never observed.
  Grid<uint8_t> obstacle_layer_;
  Grid<uint8_t> cost_;           ///< combined + inflated master grid
  int max_steps_ = 0;            ///< per-axis reach of one inflation source, in cells
  AxisClasses x_classes_;        ///< built by the first inflate()
  AxisClasses y_classes_;
  /// fill_pair's memo, [cx * y_classes_.value.size() + cy], filled on first use.
  std::vector<uint8_t> pair_memo_;
};

}  // namespace lgv::perception
