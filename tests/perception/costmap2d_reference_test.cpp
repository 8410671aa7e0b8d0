// Differential test of Costmap2D against a reference copy of its original
// implementation: a fresh visited grid and std::queue per inflation, one
// std::hypot (and std::exp) per radius test, a per-cell floor division in the
// static-map resample and one vector per Bresenham beam. Both sides take the
// same calls; the master grid must match byte for byte and the work units
// (cells raytraced, cells dequeued) must match exactly, since the cost model
// charges them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <vector>

#include "common/grid.h"
#include "common/rng.h"
#include "perception/costmap2d.h"
#include "perception/occupancy_grid.h"
#include "sim/scenario.h"

namespace lgv::perception {
namespace {

std::vector<CellIndex> bresenham_line(CellIndex from, CellIndex to) {
  std::vector<CellIndex> cells;
  int dx = std::abs(to.x - from.x);
  int dy = std::abs(to.y - from.y);
  cells.reserve(static_cast<size_t>(std::max(dx, dy)) + 1);
  const int sx = from.x < to.x ? 1 : -1;
  const int sy = from.y < to.y ? 1 : -1;
  int err = dx - dy;
  CellIndex cur = from;
  while (true) {
    cells.push_back(cur);
    if (cur == to) break;
    const int e2 = 2 * err;
    if (e2 > -dy) {
      err -= dy;
      cur.x += sx;
    }
    if (e2 < dx) {
      err += dx;
      cur.y += sy;
    }
  }
  return cells;
}

/// The costmap as it was before the allocation-free rewrite, kept verbatim.
class ReferenceCostmap {
 public:
  ReferenceCostmap(Point2D origin, double width_m, double height_m, CostmapConfig config)
      : config_(config) {
    frame_.origin = origin;
    frame_.resolution = config.resolution;
    const int w = static_cast<int>(std::ceil(width_m / config.resolution));
    const int h = static_cast<int>(std::ceil(height_m / config.resolution));
    const uint8_t fill = config.track_unknown ? kCostNoInformation : kCostFreeSpace;
    static_layer_ = Grid<uint8_t>(w, h, fill);
    obstacle_layer_ = Grid<uint8_t>(w, h, kCostNoInformation);
    cost_ = Grid<uint8_t>(w, h, fill);
  }

  const Grid<uint8_t>& master() const { return cost_; }

  void set_static_map(const msg::OccupancyGridMsg& map) {
    // Resample the incoming map into this costmap's frame.
    for (int y = 0; y < cost_.height(); ++y) {
      for (int x = 0; x < cost_.width(); ++x) {
        const Point2D w = frame_.cell_to_world({x, y});
        const CellIndex src = map.frame.world_to_cell(w);
        uint8_t v = config_.track_unknown ? kCostNoInformation : kCostFreeSpace;
        if (src.x >= 0 && src.x < map.width && src.y >= 0 && src.y < map.height) {
          const int8_t occ = map.at(src.x, src.y);
          if (occ >= 65) {
            v = kCostLethal;
          } else if (occ >= 0) {
            v = kCostFreeSpace;
          }
        }
        static_layer_.at(x, y) = v;
      }
    }
  }

  CostmapUpdateStats update(const Pose2D& pose, const msg::LaserScan& scan) {
    CostmapUpdateStats stats;
    mark_and_clear(pose, scan, stats);
    stats.inflated_cells = inflate();
    return stats;
  }

  size_t inflate() {
    // Combine static + obstacle layers, then run a BFS wavefront outward from
    // every lethal cell up to the inflation radius.
    const int w = cost_.width(), h = cost_.height();
    struct Seed {
      CellIndex cell;
      CellIndex source;
    };
    std::queue<Seed> frontier;
    Grid<uint8_t> visited(w, h, 0);

    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        const uint8_t s = static_layer_.at(x, y);
        const uint8_t o = obstacle_layer_.at(x, y);
        uint8_t v;
        if (s == kCostLethal || o == kCostLethal) {
          v = kCostLethal;
        } else if (o == kCostFreeSpace) {
          // A beam raytraced through: known free, even where the static map
          // had no information.
          v = kCostFreeSpace;
        } else {
          v = s;  // static free / unknown
        }
        cost_.at(x, y) = v;
        if (v == kCostLethal) {
          frontier.push({{x, y}, {x, y}});
          visited.at(x, y) = 1;
        }
      }
    }

    size_t processed = 0;
    const int max_steps =
        static_cast<int>(std::ceil(config_.inflation_radius / frame_.resolution)) + 1;
    while (!frontier.empty()) {
      const Seed s = frontier.front();
      frontier.pop();
      ++processed;
      constexpr int dx[] = {1, -1, 0, 0, 1, 1, -1, -1};
      constexpr int dy[] = {0, 0, 1, -1, 1, -1, 1, -1};
      for (int k = 0; k < 8; ++k) {
        const CellIndex n{s.cell.x + dx[k], s.cell.y + dy[k]};
        if (!cost_.in_bounds(n) || visited.at(n) != 0) continue;
        if (std::abs(n.x - s.source.x) > max_steps || std::abs(n.y - s.source.y) > max_steps)
          continue;
        const double d =
            distance(frame_.cell_to_world(n), frame_.cell_to_world(s.source));
        if (d > config_.inflation_radius) continue;
        visited.at(n) = 1;
        const uint8_t c = inflation_cost(d);
        uint8_t& cell = cost_.at(n);
        if (cell != kCostLethal && (cell == kCostNoInformation ? c >= kCostInscribed
                                                               : c > cell)) {
          cell = c;
        } else if (cell == kCostNoInformation && c < kCostInscribed) {
          // Leave unknown cells unknown unless the inflation makes them unsafe.
        }
        frontier.push({n, s.source});
      }
    }
    return processed;
  }

 private:
  uint8_t inflation_cost(double d) const {
    if (d <= config_.inscribed_radius) return kCostInscribed;
    if (d > config_.inflation_radius) return kCostFreeSpace;
    // Exponential decay from the inscribed radius (costmap_2d formula).
    const double factor =
        std::exp(-config_.cost_scaling * (d - config_.inscribed_radius));
    return static_cast<uint8_t>(static_cast<double>(kCostInscribed - 1) * factor);
  }

  void mark_and_clear(const Pose2D& pose, const msg::LaserScan& scan,
                      CostmapUpdateStats& stats) {
    const CellIndex origin_cell = frame_.world_to_cell(pose.position());
    for (size_t i = 0; i < scan.ranges.size(); ++i) {
      const double r = static_cast<double>(scan.ranges[i]);
      const bool hit = r <= scan.range_max && r >= scan.range_min;
      const double reach = std::min(hit ? r : scan.range_max, config_.raytrace_range);
      const double angle = pose.theta + scan.angle_of(i);
      const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
      const auto cells = bresenham_line(origin_cell, frame_.world_to_cell(end));
      const size_t n_clear = cells.size() - (hit ? 1 : 0);
      for (size_t k = 0; k < n_clear; ++k) {
        if (obstacle_layer_.in_bounds(cells[k])) {
          obstacle_layer_.at(cells[k]) = kCostFreeSpace;
        }
      }
      if (hit && reach <= config_.obstacle_range) {
        const CellIndex c = cells.back();
        if (obstacle_layer_.in_bounds(c)) obstacle_layer_.at(c) = kCostLethal;
      }
      stats.raytraced_cells += cells.size();
    }
  }

  GridFrame frame_;
  CostmapConfig config_;
  Grid<uint8_t> static_layer_;
  Grid<uint8_t> obstacle_layer_;
  Grid<uint8_t> cost_;
};

/// Both implementations, driven in lockstep.
struct Pair {
  ReferenceCostmap ref;
  Costmap2D fast;

  Pair(Point2D origin, double width_m, double height_m, CostmapConfig cfg)
      : ref(origin, width_m, height_m, cfg), fast(origin, width_m, height_m, cfg) {}

  void set_static_map(const msg::OccupancyGridMsg& map) {
    ref.set_static_map(map);
    fast.set_static_map(map);
  }
  ::testing::AssertionResult inflate() {
    const size_t want = ref.inflate();
    const size_t got = fast.inflate();
    if (want != got) {
      return ::testing::AssertionFailure()
             << "inflated_cells " << got << " != reference " << want;
    }
    return same_master();
  }
  ::testing::AssertionResult update(const Pose2D& pose, const msg::LaserScan& scan) {
    const CostmapUpdateStats want = ref.update(pose, scan);
    const CostmapUpdateStats got = fast.update(pose, scan);
    if (want.raytraced_cells != got.raytraced_cells ||
        want.inflated_cells != got.inflated_cells) {
      return ::testing::AssertionFailure()
             << "stats (raytraced " << got.raytraced_cells << ", inflated "
             << got.inflated_cells << ") != reference (" << want.raytraced_cells << ", "
             << want.inflated_cells << ")";
    }
    return same_master();
  }
  ::testing::AssertionResult same_master() const {
    const Grid<uint8_t>& a = ref.master();
    const Grid<uint8_t>& b = fast.master();
    if (a.width() != b.width() || a.height() != b.height()) {
      return ::testing::AssertionFailure() << "master size differs";
    }
    size_t diffs = 0;
    CellIndex first;
    for (int y = 0; y < a.height(); ++y) {
      for (int x = 0; x < a.width(); ++x) {
        if (a.at(x, y) != b.at(x, y) && diffs++ == 0) first = {x, y};
      }
    }
    if (diffs == 0) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << diffs << " master cells differ, first at (" << first.x << ", " << first.y
           << "): " << int{b.at(first)} << " != reference " << int{a.at(first)};
  }
};

/// A map of `w`x`h` cells in `frame` with cells unknown, free (0-64, around
/// the threshold included) or lethal (65-100).
msg::OccupancyGridMsg random_map(Rng& rng, GridFrame frame, int w, int h,
                                 double p_lethal, double p_unknown) {
  msg::OccupancyGridMsg m;
  m.frame = frame;
  m.width = w;
  m.height = h;
  m.data.resize(static_cast<size_t>(w) * h);
  for (int8_t& v : m.data) {
    const double u = rng.uniform();
    if (u < p_lethal) {
      v = static_cast<int8_t>(rng.uniform_int(65, 100));
    } else if (u < p_lethal + p_unknown) {
      v = msg::kUnknownCell;
    } else {
      v = static_cast<int8_t>(rng.bernoulli(0.2) ? 64 : rng.uniform_int(0, 64));
    }
  }
  return m;
}

/// A sweep whose ranges include hits, misses past range_max and readings
/// under range_min.
msg::LaserScan random_scan(Rng& rng, int beams) {
  msg::LaserScan s;
  s.range_min = 0.12f;
  s.range_max = static_cast<float>(rng.uniform(1.0, 4.0));
  s.angle_min = rng.uniform(-3.14, 0.0);
  s.angle_increment = 6.28 / beams;
  s.angle_max = s.angle_min + s.angle_increment * (beams - 1);
  s.ranges.resize(static_cast<size_t>(beams));
  for (float& r : s.ranges) {
    const double u = rng.uniform();
    if (u < 0.1) {
      r = static_cast<float>(rng.uniform(0.0, s.range_min));
    } else if (u < 0.25) {
      r = s.range_max + static_cast<float>(rng.uniform(0.01, 2.0));
    } else {
      r = static_cast<float>(rng.uniform(s.range_min, s.range_max));
    }
  }
  return s;
}

// ---- the scenario grids along a driven path ---------------------------------

void drive_scenario(const sim::Scenario& scenario, const msg::OccupancyGridMsg& static_map,
                    const std::vector<sim::ScanLogEntry>& log) {
  Pair p(scenario.world.frame().origin, scenario.world.width_m(),
         scenario.world.height_m(), CostmapConfig{});
  p.set_static_map(static_map);
  ASSERT_TRUE(p.inflate());
  for (size_t i = 0; i < log.size(); ++i) {
    ASSERT_TRUE(p.update(log[i].odom_pose, log[i].scan)) << "scan " << i;
  }
}

std::vector<sim::ScanLogEntry> path_log(const sim::Scenario& scenario) {
  auto log = sim::record_scan_log(scenario, 0.4, 0.2, 60);
  EXPECT_GE(log.size(), 50u);
  return log;
}

msg::OccupancyGridMsg ground_truth_map(const sim::Scenario& scenario) {
  return OccupancyGrid::from_binary(scenario.world.frame(), scenario.world.grid()).to_msg(0.0);
}

TEST(CostmapReference, LabGridAlongAPath) {
  const sim::Scenario s = sim::make_lab_scenario();
  drive_scenario(s, ground_truth_map(s), path_log(s));
}

TEST(CostmapReference, FleetGridAlongAPath) {
  const sim::Scenario s = sim::make_fleet_scenario(5, 64);
  drive_scenario(s, ground_truth_map(s), path_log(s));
}

TEST(CostmapReference, OfficeGridWithPartlyKnownMap) {
  // The static map is what a few scans mapped: mostly unknown cells.
  const sim::Scenario s = sim::make_office_scenario();
  const auto log = path_log(s);
  OccupancyGrid partial(s.world.frame().origin, s.world.width_m(), s.world.height_m());
  for (size_t i = 0; i < 10; ++i) partial.integrate_scan(log[i].true_pose, log[i].scan);
  const msg::OccupancyGridMsg map = partial.to_msg(0.0);
  const auto unknown = std::count(map.data.begin(), map.data.end(), msg::kUnknownCell);
  ASSERT_GT(unknown, static_cast<long>(map.data.size() / 2));
  drive_scenario(s, map, log);
}

// ---- random frames, configs and layers --------------------------------------

TEST(CostmapReference, RandomCases) {
  Rng rng(0xc0575);
  constexpr double kResolutions[] = {0.025, 0.05, 0.1};
  int min_steps = 1 << 30, max_steps = 0;
  for (int trial = 0; trial < 240; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    CostmapConfig cfg;
    cfg.resolution = kResolutions[rng.uniform_int(0, 2)];
    if (trial % 2 == 0) {
      // A radius between cell distances: max_steps = ceil(R / res) + 1 = steps.
      const int steps = rng.uniform_int(3, 20);
      cfg.inflation_radius = cfg.resolution * (steps - 1 - rng.uniform(0.01, 0.99));
    } else {
      // A radius exactly at a cell distance (as 0.4 m is at 0.05 m cells):
      // rounding in the per-pair arithmetic puts the same offset inside the
      // radius from some sources and outside from others.
      const int i = rng.uniform_int(2, 17);
      cfg.inflation_radius =
          std::hypot(i * cfg.resolution, rng.uniform_int(0, i / 3) * cfg.resolution);
    }
    cfg.inscribed_radius = cfg.inflation_radius * rng.uniform(0.0, 0.8);
    cfg.cost_scaling = rng.uniform(0.5, 20.0);
    cfg.raytrace_range = rng.uniform(0.5, 4.0);
    cfg.obstacle_range = rng.uniform(0.3, cfg.raytrace_range + 0.5);
    cfg.track_unknown = rng.bernoulli(0.5);
    const int m = static_cast<int>(std::ceil(cfg.inflation_radius / cfg.resolution)) + 1;
    min_steps = std::min(min_steps, m);
    max_steps = std::max(max_steps, m);

    const Point2D origin{rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)};
    const double width_m = cfg.resolution * rng.uniform_int(8, 90);
    const double height_m = cfg.resolution * rng.uniform_int(8, 90);
    Pair p(origin, width_m, height_m, cfg);
    const int w = p.fast.width(), h = p.fast.height();

    p.set_static_map(random_map(rng, p.fast.frame(), w, h, rng.uniform(0.0, 0.15),
                                rng.uniform(0.0, 0.5)));
    ASSERT_TRUE(p.inflate());
    for (int scan = 0; scan < 3; ++scan) {
      // Poses inside and up to a metre outside the grid.
      const Pose2D pose{origin.x + rng.uniform(-1.0, width_m + 1.0),
                        origin.y + rng.uniform(-1.0, height_m + 1.0),
                        rng.uniform(-3.14, 3.14)};
      ASSERT_TRUE(p.update(pose, random_scan(rng, rng.uniform_int(8, 120))))
          << "scan " << scan;
    }
  }
  EXPECT_EQ(min_steps, 3);
  EXPECT_EQ(max_steps, 20);
}

// ---- static maps in another frame -------------------------------------------

TEST(CostmapReference, StaticMapFromAnotherFrame) {
  Rng rng(0x5747);
  struct Source {
    const char* what;
    double dx, dy;       ///< origin offset, m
    double res_factor;   ///< map resolution / costmap resolution
    double size_factor;  ///< map extent / costmap extent
  };
  constexpr Source kSources[] = {
      {"offset origin", 0.37, -0.81, 1.0, 1.0},
      {"coarser", -0.2, 0.13, 2.5, 1.0},
      {"finer", 0.05, 0.4, 0.4, 1.0},
      {"smaller", 0.6, 0.7, 1.0, 0.5},
      {"larger", -1.3, -0.9, 1.0, 1.8},
      {"coarser and larger", -0.75, 0.3, 1.7, 1.5},
      {"finer and smaller", 0.9, -0.2, 0.6, 0.6},
  };
  for (const bool track_unknown : {true, false}) {
    for (const Source& src : kSources) {
      SCOPED_TRACE(::testing::Message() << src.what << (track_unknown ? ", tracking unknown" : ""));
      CostmapConfig cfg;
      cfg.track_unknown = track_unknown;
      const Point2D origin{-3.3, 7.9};
      const double width_m = 6.0, height_m = 4.5;
      Pair p(origin, width_m, height_m, cfg);
      GridFrame frame;
      frame.origin = {origin.x + src.dx, origin.y + src.dy};
      frame.resolution = cfg.resolution * src.res_factor;
      const int mw = static_cast<int>(std::ceil(width_m * src.size_factor / frame.resolution));
      const int mh = static_cast<int>(std::ceil(height_m * src.size_factor / frame.resolution));
      p.set_static_map(random_map(rng, frame, mw, mh, 0.08, 0.3));
      ASSERT_TRUE(p.inflate());
    }
  }
}

}  // namespace
}  // namespace lgv::perception
