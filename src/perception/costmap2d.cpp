#include "perception/costmap2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/arena.h"

namespace lgv::perception {
namespace {

// pair_memo_ entries besides a cost (inflation_cost never exceeds
// kCostInscribed, so both are free to use).
constexpr uint8_t kPairUnset = kCostLethal;
constexpr uint8_t kOutsideRadius = kCostNoInformation;
constexpr int kMaxSide = 65535;

}  // namespace

Costmap2D::Costmap2D(Point2D origin, double width_m, double height_m,
                     CostmapConfig config)
    : config_(config) {
  frame_.origin = origin;
  frame_.resolution = config.resolution;
  const int w = static_cast<int>(std::ceil(width_m / config.resolution));
  const int h = static_cast<int>(std::ceil(height_m / config.resolution));
  if (w > kMaxSide || h > kMaxSide) {
    throw std::length_error("Costmap2D: more than 65535 cells per side");
  }
  const uint8_t fill = config.track_unknown ? kCostNoInformation : kCostFreeSpace;
  static_layer_ = Grid<uint8_t>(w, h, fill);
  obstacle_layer_ = Grid<uint8_t>(w, h, kCostNoInformation);
  cost_ = Grid<uint8_t>(w, h, fill);
  max_steps_ =
      static_cast<int>(std::ceil(config_.inflation_radius / frame_.resolution)) + 1;
}

Costmap2D::AxisClasses Costmap2D::classify_axis(int cells, bool y_axis) const {
  // Δ is defined by cell_to_world, so every class holds a distance
  // component of the radius test bit for bit.
  std::vector<double> centre;
  centre.reserve(static_cast<size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    centre.push_back(y_axis ? frame_.cell_to_world({0, c}).y
                            : frame_.cell_to_world({c, 0}).x);
  }
  // IEEE subtraction is antisymmetric, so (a, k) and (a + k, -k) share one
  // |Δ|. Values of different k differ by about a cell, so each k keeps its
  // own short list of classes, searched only when the value changes.
  const int m = max_steps_;
  const int span = 2 * m + 1;
  AxisClasses axis;
  axis.of.assign(static_cast<size_t>(cells) * span, 0);
  std::vector<uint16_t> ids;
  for (int k = 0; k <= m; ++k) {
    ids.clear();
    uint16_t id = 0;
    double id_value = -1.0;
    for (size_t a = 0; a + k < centre.size(); ++a) {
      const double v = std::fabs(centre[a + k] - centre[a]);
      if (v != id_value) {
        auto it = std::find_if(ids.begin(), ids.end(),
                               [&](uint16_t c) { return axis.value[c] == v; });
        if (it == ids.end()) {
          if (axis.value.size() > UINT16_MAX) {
            throw std::length_error("Costmap2D: too many inflation distance classes");
          }
          ids.push_back(static_cast<uint16_t>(axis.value.size()));
          axis.value.push_back(v);
          it = ids.end() - 1;
        }
        id = *it;
        id_value = v;
      }
      axis.of[a * span + m + k] = id;
      axis.of[(a + k) * span + m - k] = id;
    }
  }
  return axis;
}

uint8_t Costmap2D::cost_at(CellIndex c) const {
  return cost_.in_bounds(c) ? cost_.at(c) : kCostLethal;
}

uint8_t Costmap2D::cost_at_world(const Point2D& p) const {
  return cost_at(frame_.world_to_cell(p));
}

bool Costmap2D::is_traversable(CellIndex c) const {
  const uint8_t v = cost_at(c);
  return v < kCostInscribed;  // unknown (255) and lethal excluded
}

void Costmap2D::set_static_map(const msg::OccupancyGridMsg& map) {
  // Resample the incoming map into this costmap's frame: each cell reads the
  // map cell under its centre. The lookup is separable, so the source column
  // of every x and the source row of every y are found once (-1: off-map).
  const int w = cost_.width(), h = cost_.height();
  Arena::Scope scope(thread_scratch());
  int* src_x = thread_scratch().alloc_array<int>(static_cast<size_t>(w));
  int* src_y = thread_scratch().alloc_array<int>(static_cast<size_t>(h));
  for (int x = 0; x < w; ++x) {
    const int s = map.frame.world_to_cell(frame_.cell_to_world({x, 0})).x;
    src_x[x] = s >= 0 && s < map.width ? s : -1;
  }
  for (int y = 0; y < h; ++y) {
    const int s = map.frame.world_to_cell(frame_.cell_to_world({0, y})).y;
    src_y[y] = s >= 0 && s < map.height ? s : -1;
  }
  const uint8_t fill = config_.track_unknown ? kCostNoInformation : kCostFreeSpace;
  uint8_t* out = static_layer_.data().data();
  for (int y = 0; y < h; ++y, out += w) {
    if (src_y[y] < 0) {
      std::fill(out, out + w, fill);
      continue;
    }
    const int8_t* row = map.data.data() + static_cast<size_t>(src_y[y]) * map.width;
    for (int x = 0; x < w; ++x) {
      const int8_t occ = src_x[x] < 0 ? int8_t{-1} : row[src_x[x]];
      out[x] = occ >= 65 ? kCostLethal : occ >= 0 ? kCostFreeSpace : fill;
    }
  }
}

uint8_t Costmap2D::inflation_cost(double d) const {
  if (d <= config_.inscribed_radius) return kCostInscribed;
  if (d > config_.inflation_radius) return kCostFreeSpace;
  // Exponential decay from the inscribed radius (costmap_2d formula).
  const double factor =
      std::exp(-config_.cost_scaling * (d - config_.inscribed_radius));
  return static_cast<uint8_t>(static_cast<double>(kCostInscribed - 1) * factor);
}

uint8_t Costmap2D::fill_pair(uint16_t cx, uint16_t cy) {
  const double d = std::hypot(x_classes_.value[cx], y_classes_.value[cy]);
  return pair_memo_[static_cast<size_t>(cx) * y_classes_.value.size() + cy] =
             d > config_.inflation_radius ? kOutsideRadius : inflation_cost(d);
}

void Costmap2D::mark_and_clear(const Pose2D& pose, const msg::LaserScan& scan,
                               CostmapUpdateStats& stats) {
  const CellIndex origin_cell = frame_.world_to_cell(pose.position());
  uint8_t* obstacle = obstacle_layer_.data().data();
  const int w = obstacle_layer_.width();
  for (size_t i = 0; i < scan.ranges.size(); ++i) {
    const double r = static_cast<double>(scan.ranges[i]);
    const bool hit = r <= scan.range_max && r >= scan.range_min;
    const double reach = std::min(hit ? r : scan.range_max, config_.raytrace_range);
    const double angle = pose.theta + scan.angle_of(i);
    const Point2D end{pose.x + std::cos(angle) * reach, pose.y + std::sin(angle) * reach};
    const bool mark = hit && reach <= config_.obstacle_range;
    // Clear every cell but a hit's endpoint, which is marked when in range.
    stats.raytraced_cells +=
        walk_line(origin_cell, frame_.world_to_cell(end), [&](CellIndex c, bool last) {
          if (!obstacle_layer_.in_bounds(c)) return;
          uint8_t& cell = obstacle[static_cast<size_t>(c.y) * w + c.x];
          if (!last || !hit) {
            cell = kCostFreeSpace;
          } else if (mark) {
            cell = kCostLethal;
          }
        });
  }
}

size_t Costmap2D::inflate() {
  // Combine static + obstacle layers, then run a BFS wavefront outward from
  // every lethal cell up to the inflation radius. A cell is claimed by the
  // first source whose wavefront reaches it within the radius.
  const int w = cost_.width(), h = cost_.height();
  const size_t n = cost_.size();
  if (n == 0) return 0;
  if (x_classes_.of.empty()) {  // built on first use, so construction stays cheap
    x_classes_ = classify_axis(w, false);
    y_classes_ = classify_axis(h, true);
    pair_memo_.assign(x_classes_.value.size() * y_classes_.value.size(), kPairUnset);
  }
  const uint8_t* st = static_layer_.data().data();
  const uint8_t* ob = obstacle_layer_.data().data();
  uint8_t* cost = cost_.data().data();
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = st[i], o = ob[i];
    // A beam raytraced through is known free, even where the static map had
    // no information; otherwise the static layer's free / unknown stands.
    cost[i] = s == kCostLethal || o == kCostLethal ? kCostLethal
              : o == kCostFreeSpace                ? kCostFreeSpace
                                                   : s;
  }

  struct Seed {
    uint16_t x, y;    ///< the cell
    uint16_t sx, sy;  ///< the lethal cell it inherits its distance from
  };
  static_assert(sizeof(Seed) == 8);
  // Visited flags carry a one-cell border that reads as visited, so the
  // neighbour loop needs no bounds test.
  const size_t stride = static_cast<size_t>(w) + 2;
  const size_t padded = stride * (static_cast<size_t>(h) + 2);
  Arena::Scope scope(thread_scratch());
  uint8_t* visited = thread_scratch().alloc_array<uint8_t>(padded);
  Seed* fifo = thread_scratch().alloc_array<Seed>(n);  // each cell is queued once
  std::memset(visited, 1, stride);
  std::memset(visited + padded - stride, 1, stride);
  for (int y = 0; y < h; ++y) {
    uint8_t* row = visited + (static_cast<size_t>(y) + 1) * stride;
    row[0] = row[stride - 1] = 1;
    const uint8_t* c = cost + static_cast<size_t>(y) * w;
    for (int x = 0; x < w; ++x) row[x + 1] = c[x] == kCostLethal;
  }
  size_t head = 0, tail = 0;
  for (int y = 0; y < h; ++y) {  // seeds in raster order
    const uint8_t* c = cost + static_cast<size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      if (c[x] != kCostLethal) continue;
      const auto ux = static_cast<uint16_t>(x), uy = static_cast<uint16_t>(y);
      fifo[tail++] = {ux, uy, ux, uy};
    }
  }

  // The radius test and cost of offset (kx, ky) from source (sx, sy) depend
  // only on the two axis classes, looked up by source row/column and offset.
  // Members are read into locals: the uint8_t stores below may alias them.
  const int m = max_steps_;
  const int span = 2 * m + 1;
  const uint16_t* x_of = x_classes_.of.data() + m;
  const uint16_t* y_of = y_classes_.of.data() + m;
  const uint8_t* memo = pair_memo_.data();
  const size_t n_cy = y_classes_.value.size();
  constexpr int dx[] = {1, -1, 0, 0, 1, 1, -1, -1};
  constexpr int dy[] = {0, 0, 1, -1, 1, -1, 1, -1};
  ptrdiff_t dv[8], dc[8];
  for (int k = 0; k < 8; ++k) {
    dv[k] = dx[k] + dy[k] * static_cast<ptrdiff_t>(stride);
    dc[k] = dx[k] + dy[k] * static_cast<ptrdiff_t>(w);
  }
  while (head < tail) {
    const Seed s = fifo[head++];
    const uint16_t* cls_x = x_of + static_cast<size_t>(s.sx) * span;
    const uint16_t* cls_y = y_of + static_cast<size_t>(s.sy) * span;
    const size_t vi = (static_cast<size_t>(s.y) + 1) * stride + s.x + 1;
    const size_t ci = static_cast<size_t>(s.y) * w + s.x;
    const int kx0 = s.x - s.sx, ky0 = s.y - s.sy;
    for (int k = 0; k < 8; ++k) {
      uint8_t& seen = visited[vi + dv[k]];
      if (seen != 0) continue;
      const int kx = kx0 + dx[k], ky = ky0 + dy[k];
      if (std::abs(kx) > m || std::abs(ky) > m) continue;
      uint8_t c = memo[cls_x[kx] * n_cy + cls_y[ky]];
      if (c == kPairUnset) c = fill_pair(cls_x[kx], cls_y[ky]);
      if (c == kOutsideRadius) continue;
      seen = 1;
      uint8_t& cell = cost[ci + dc[k]];
      if (cell != kCostLethal && (cell == kCostNoInformation ? c >= kCostInscribed
                                                             : c > cell)) {
        // Unknown cells stay unknown unless the inflation makes them unsafe.
        cell = c;
      }
      fifo[tail++] = {static_cast<uint16_t>(s.x + dx[k]), static_cast<uint16_t>(s.y + dy[k]),
                      s.sx, s.sy};
    }
  }
  return head;
}

CostmapUpdateStats Costmap2D::update(const Pose2D& pose, const msg::LaserScan& scan) {
  CostmapUpdateStats stats;
  mark_and_clear(pose, scan, stats);
  stats.inflated_cells = inflate();
  return stats;
}

msg::OccupancyGridMsg Costmap2D::to_msg(double stamp) const {
  msg::OccupancyGridMsg m;
  m.header.stamp = stamp;
  m.header.frame_id = "costmap";
  m.frame = frame_;
  m.width = cost_.width();
  m.height = cost_.height();
  m.data.resize(static_cast<size_t>(m.width) * m.height);
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      const uint8_t v = cost_.at(x, y);
      int8_t out;
      if (v == kCostNoInformation) {
        out = msg::kUnknownCell;
      } else {
        out = static_cast<int8_t>(std::lround(std::min<double>(v, kCostInscribed) /
                                              kCostInscribed * 100.0));
      }
      m.data[static_cast<size_t>(y) * m.width + x] = out;
    }
  }
  return m;
}

}  // namespace lgv::perception
