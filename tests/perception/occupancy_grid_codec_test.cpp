// Differential tests of OccupancyGrid's two bulk conversions against the
// per-cell loops they replaced: to_msg (one exp per distinct log-odds value,
// not per cell) and from_binary (one fill pass that leaves the state an
// update_cell call per source cell left). Both must agree in every bit and
// every observable.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialization.h"
#include "perception/occupancy_grid.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

// ---- to_msg ------------------------------------------------------------------

/// The per-cell loop to_msg ran before the memo, verbatim through the public
/// accessors.
msg::OccupancyGridMsg reference_to_msg(const OccupancyGrid& g, double stamp) {
  msg::OccupancyGridMsg m;
  m.header.stamp = stamp;
  m.header.frame_id = "map";
  m.frame = g.frame();
  m.width = g.width();
  m.height = g.height();
  m.data.resize(static_cast<size_t>(m.width) * m.height, msg::kUnknownCell);
  for (int y = 0; y < m.height; ++y) {
    for (int x = 0; x < m.width; ++x) {
      const CellIndex c{x, y};
      if (g.is_unknown(c)) continue;
      const double p = g.probability_at(c);
      m.data[static_cast<size_t>(y) * m.width + x] =
          static_cast<int8_t>(std::lround(p * 100.0));
    }
  }
  return m;
}

void expect_to_msg_matches_reference(const OccupancyGrid& g) {
  const msg::OccupancyGridMsg got = g.to_msg(2.5);
  const msg::OccupancyGridMsg want = reference_to_msg(g, 2.5);
  EXPECT_EQ(got.header, want.header);
  EXPECT_EQ(got.frame, want.frame);
  ASSERT_EQ(got.width, want.width);
  ASSERT_EQ(got.height, want.height);
  ASSERT_EQ(got.data.size(), want.data.size());
  const auto diff = std::mismatch(got.data.begin(), got.data.end(), want.data.begin());
  if (diff.first != got.data.end()) {
    const size_t i = static_cast<size_t>(diff.first - got.data.begin());
    const CellIndex c{static_cast<int>(i % got.width), static_cast<int>(i / got.width)};
    ADD_FAILURE() << "cell (" << c.x << ", " << c.y << "), log-odds " << g.log_odds_at(c)
                  << ": to_msg " << int{*diff.first} << ", per-cell loop "
                  << int{*diff.second};
  }
}

size_t distinct_known_values(const OccupancyGrid& g) {
  std::set<uint32_t> bits;
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      if (g.is_unknown({x, y})) continue;
      const float v = static_cast<float>(g.log_odds_at({x, y}));
      uint32_t b;
      std::memcpy(&b, &v, sizeof(b));
      bits.insert(b);
    }
  }
  return bits.size();
}

OccupancyGrid known_map(const sim::Scenario& s) {
  return OccupancyGrid::from_binary(s.world.frame(), s.world.grid());
}

/// A w×h grid holding exactly `cells`, decoded from a kRaw record whose cell
/// block (the record's last 4·w·h bytes, little-endian floats) is patched.
OccupancyGrid grid_with_cells(int w, int h, const std::vector<float>& cells) {
  OccupancyGridConfig cfg;
  cfg.resolution = 0.25;
  const OccupancyGrid blank({0.0, 0.0}, w * 0.25, h * 0.25, cfg);
  EXPECT_EQ(static_cast<size_t>(blank.width()) * blank.height(), cells.size());
  WireWriter wr;
  blank.serialize(wr, GridEncoding::kRaw);
  std::vector<uint8_t> bytes = wr.take();
  std::memcpy(bytes.data() + bytes.size() - 4 * cells.size(), cells.data(),
              4 * cells.size());
  WireReader rd(bytes);
  return OccupancyGrid::deserialize(rd);
}

TEST(OccupancyGridCodec, ToMsgMatchesPerCellLoopOnKnownMaps) {
  for (const sim::Scenario& s :
       {sim::make_lab_scenario(), sim::make_office_scenario(),
        sim::make_fleet_scenario(5, 64), sim::make_chaos_scenario()}) {
    const OccupancyGrid g = known_map(s);
    EXPECT_EQ(distinct_known_values(g), 2u);
    expect_to_msg_matches_reference(g);
  }
}

TEST(OccupancyGridCodec, ToMsgMatchesPerCellLoopAfterNoisyScans) {
  // Scans integrated at the drifting odometry pose disagree with each other,
  // so cells collect many different evidence sums.
  const sim::Scenario s = sim::make_office_scenario();
  const auto log = sim::record_scan_log(s, 0.4, 0.2, 320);
  ASSERT_GE(log.size(), 300u);
  OccupancyGrid g(s.world.frame().origin, s.world.width_m(), s.world.height_m());
  for (size_t i = 0; i < log.size(); ++i) {
    g.integrate_scan(log[i].odom_pose, log[i].scan);
    if (i % 80 == 0) expect_to_msg_matches_reference(g);
  }
  EXPECT_GE(distinct_known_values(g), 200u);
  expect_to_msg_matches_reference(g);
}

TEST(OccupancyGridCodec, ToMsgKeepsNegativeZeroUnknown) {
  // -0.0f compares equal to 0.0f, so is_unknown calls it unknown; its bits
  // differ, so a memo consulted before the zero test would give it a byte.
  OccupancyGrid seeded({0.0, 0.0}, 2.0, 2.0);
  for (int i = 0; i < 3; ++i) {
    msg::LaserScan scan;
    scan.angle_min = scan.angle_max = 0.3 * i;
    scan.range_min = 0.1;
    scan.range_max = 3.5;
    scan.ranges = {1.2f};
    seeded.integrate_scan({0.5, 0.5, 0.0}, scan);
  }
  WireWriter wr;
  seeded.serialize(wr, GridEncoding::kRaw);
  std::vector<uint8_t> bytes = wr.take();
  const size_t n = static_cast<size_t>(seeded.width()) * seeded.height();
  const CellIndex patched{7, 5};
  ASSERT_FALSE(seeded.is_unknown(patched));
  const float negative_zero = -0.0f;
  std::memcpy(bytes.data() + bytes.size() - 4 * n +
                  4 * (static_cast<size_t>(patched.y) * seeded.width() + patched.x),
              &negative_zero, sizeof(float));
  WireReader rd(bytes);
  const OccupancyGrid g = OccupancyGrid::deserialize(rd);
  ASSERT_TRUE(std::signbit(g.log_odds_at(patched)));
  EXPECT_TRUE(g.is_unknown(patched));
  EXPECT_EQ(g.to_msg(0.0).at(patched.x, patched.y), msg::kUnknownCell);
  expect_to_msg_matches_reference(g);
}

TEST(OccupancyGridCodec, ToMsgMatchesPerCellLoopOnRandomValues) {
  // Thousands of distinct values grow the memo table several times; zeros of
  // both signs, infinities and subnormals sit between them.
  Rng rng(0x70a5);
  const int w = 96, h = 80;
  std::vector<float> cells(static_cast<size_t>(w) * h);
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(), -1e-3f, 1e-3f, 4.0f};
  for (float& v : cells) {
    const int pick = rng.uniform_int(0, 15);
    v = pick < 8 ? specials[pick] : static_cast<float>(rng.uniform(-8.0, 8.0));
  }
  const OccupancyGrid g = grid_with_cells(w, h, cells);
  EXPECT_GT(distinct_known_values(g), 3000u);
  expect_to_msg_matches_reference(g);
}

// ---- from_binary ---------------------------------------------------------------

/// What seeding cell by cell left: the previous from_binary called
/// update_cell once per source cell, in raster order, on a fresh grid of the
/// source's extent. This replays update_cell and record_flip verbatim on
/// test-local state.
struct PerCellSeed {
  int width = 0;
  int height = 0;
  std::vector<float> cells;
  size_t known_cells = 0;
  uint64_t change_version = 0;
  uint64_t changelog_base = 0;
  std::vector<CellIndex> changelog;
  size_t tile_count = 0;
  size_t touched_tiles = 0;
};

PerCellSeed per_cell_seed(const GridFrame& frame, const Grid<uint8_t>& solid,
                          OccupancyGridConfig config) {
  constexpr size_t kChangelogCap = 4096;
  constexpr int kTile = OccupancyGrid::kTileSize;
  config.resolution = frame.resolution;
  const OccupancyGrid fresh(frame.origin, solid.width() * frame.resolution,
                            solid.height() * frame.resolution, config);
  PerCellSeed s;
  s.width = fresh.width();
  s.height = fresh.height();
  s.cells.assign(static_cast<size_t>(s.width) * s.height, 0.0f);
  s.tile_count = fresh.tile_count();
  const int tiles_wide = (s.width + kTile - 1) / kTile;
  std::vector<bool> touched(s.tile_count, false);
  const double occupied_log_odds =
      std::log(config.occupied_threshold / (1.0 - config.occupied_threshold));
  for (int y = 0; y < solid.height(); ++y) {
    for (int x = 0; x < solid.width(); ++x) {
      if (x >= s.width || y >= s.height) continue;  // update_cell's bounds test
      const double delta = solid.at(x, y) != 0 ? config.log_odds_max : config.log_odds_min;
      float& cell = s.cells[static_cast<size_t>(y) * s.width + x];
      const float old = cell;
      const bool was_unknown = old == 0.0f;
      const bool was_occupied = old > occupied_log_odds;
      float next = static_cast<float>(std::clamp(static_cast<double>(old) + delta,
                                                 config.log_odds_min, config.log_odds_max));
      if (next == 0.0f) next = delta < 0 ? -1e-3f : 1e-3f;
      if (std::memcmp(&next, &old, sizeof(float)) == 0) continue;
      cell = next;
      touched[static_cast<size_t>(y / kTile) * tiles_wide + x / kTile] = true;
      if (was_unknown) ++s.known_cells;
      if (was_unknown || was_occupied != (next > occupied_log_odds)) {
        if (s.changelog.size() >= kChangelogCap) {
          s.changelog.clear();
          s.changelog_base = s.change_version;
        }
        s.changelog.push_back({x, y});
        ++s.change_version;
      }
    }
  }
  s.touched_tiles = static_cast<size_t>(std::count(touched.begin(), touched.end(), true));
  return s;
}

void expect_from_binary_matches_per_cell_rule(const GridFrame& frame,
                                              const Grid<uint8_t>& solid,
                                              const OccupancyGridConfig& config = {}) {
  const OccupancyGrid g = OccupancyGrid::from_binary(frame, solid, config);
  const PerCellSeed want = per_cell_seed(frame, solid, config);
  ASSERT_EQ(g.width(), want.width);
  ASSERT_EQ(g.height(), want.height);
  size_t mismatched = 0;
  for (int y = 0; y < want.height; ++y) {
    for (int x = 0; x < want.width; ++x) {
      const float got = static_cast<float>(g.log_odds_at({x, y}));
      const float expected = want.cells[static_cast<size_t>(y) * want.width + x];
      if (std::memcmp(&got, &expected, sizeof(float)) != 0 && mismatched++ == 0) {
        ADD_FAILURE() << "cell (" << x << ", " << y << "): " << got << " vs " << expected;
      }
    }
  }
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(g.known_cells(), want.known_cells);
  EXPECT_EQ(g.change_version(), want.change_version);
  EXPECT_EQ(g.changelog_base(), want.changelog_base);
  EXPECT_EQ(g.changelog().size(), want.changelog.size());
  EXPECT_TRUE(g.changelog() == want.changelog);
  EXPECT_EQ(g.tile_count(), want.tile_count);
  EXPECT_EQ(g.dirty_tiles_since(0), want.touched_tiles);
  // Every touched tile carries the grid's own stamp, drawn at construction.
  EXPECT_EQ(g.dirty_tiles_since(g.write_version() - 1), want.touched_tiles);
  EXPECT_EQ(g.dirty_tiles_since(g.write_version()), 0u);
}

Grid<uint8_t> random_solid(int w, int h, uint64_t seed) {
  Rng rng(seed);
  Grid<uint8_t> solid(w, h, 0);
  for (uint8_t& c : solid.data()) c = rng.bernoulli(0.3) ? 1 : 0;
  return solid;
}

TEST(OccupancyGridCodec, FromBinaryMatchesPerCellRuleAroundTheChangelogCap) {
  // 0.25 m cells: n · 0.25 / 0.25 is exact, so the grid is the source's size.
  const GridFrame frame{{-1.5, 2.0}, 0.25};
  // 1, 4,096, 4,097, 8,192 and 8,193 cells: no drop, a full log, one drop
  // and one more flip, two drops, two drops and one more flip.
  constexpr std::pair<int, int> kSizes[] = {{1, 1}, {64, 64}, {17, 241}, {128, 64}, {8193, 1}};
  for (const auto& [w, h] : kSizes) {
    SCOPED_TRACE(::testing::Message() << w << "x" << h);
    expect_from_binary_matches_per_cell_rule(frame, random_solid(w, h, w * 131 + h));
  }
  // A lone solid cell too, and the rule's own values at 1 and 4,097 cells.
  expect_from_binary_matches_per_cell_rule(frame, Grid<uint8_t>(1, 1, 1));
  const OccupancyGrid one = OccupancyGrid::from_binary(frame, Grid<uint8_t>(1, 1, 0));
  EXPECT_EQ(one.changelog_base(), 0u);
  EXPECT_EQ(one.changelog().size(), 1u);
  const OccupancyGrid over =
      OccupancyGrid::from_binary(frame, random_solid(17, 241, 1));
  EXPECT_EQ(over.changelog_base(), 4096u);
  EXPECT_EQ(over.changelog().size(), 1u);
}

TEST(OccupancyGridCodec, FromBinaryMatchesPerCellRuleOnScenarioWorlds) {
  for (const sim::Scenario& s :
       {sim::make_lab_scenario(), sim::make_office_scenario(),
        sim::make_obstacle_course_scenario(), sim::make_open_scenario(),
        sim::make_chaos_scenario(), sim::make_fleet_scenario(0, 64),
        sim::make_fleet_scenario(5, 64)}) {
    expect_from_binary_matches_per_cell_rule(s.world.frame(), s.world.grid());
  }
}

TEST(OccupancyGridCodec, FromBinaryLeavesRoundedUpExtentUnknown) {
  // 3 · 0.05 / 0.05 is 3.0000000000000004, so the occupancy grid of a 3×2
  // world is 4×2, and column 3 is never seeded.
  const sim::World world(0.149, 0.1);
  ASSERT_EQ(world.grid().width(), 3);
  ASSERT_EQ(world.grid().height(), 2);
  const OccupancyGrid g = OccupancyGrid::from_binary(world.frame(), world.grid());
  ASSERT_EQ(g.width(), 4);
  ASSERT_EQ(g.height(), 2);
  EXPECT_TRUE(g.is_unknown({3, 0}));
  EXPECT_TRUE(g.is_unknown({3, 1}));
  EXPECT_EQ(g.known_cells(), 6u);
  expect_from_binary_matches_per_cell_rule(world.frame(), world.grid());
  // At 48 columns the unseeded column opens a tile of its own, which stays
  // unstamped.
  const GridFrame frame{{0.0, 0.0}, 0.05};
  const Grid<uint8_t> wide = random_solid(48, 20, 48);
  ASSERT_EQ(OccupancyGrid::from_binary(frame, wide).width(), 49);
  expect_from_binary_matches_per_cell_rule(frame, wide);
}

TEST(OccupancyGridCodec, FromBinaryKeepsTheNudgeOffZero) {
  // Evidence that clamps or rounds to zero still marks a cell known, at
  // ±1e-3 by the sign of the evidence.
  const GridFrame frame{{0.0, 0.0}, 0.25};
  const Grid<uint8_t> solid = random_solid(40, 30, 7);
  OccupancyGridConfig underflow;
  underflow.log_odds_min = -1e-50;  // float(-1e-50) is -0.0f
  underflow.log_odds_max = 1e-50;
  OccupancyGridConfig zero_floor;
  zero_floor.log_odds_min = 0.0;
  for (const OccupancyGridConfig& cfg : {underflow, zero_floor}) {
    expect_from_binary_matches_per_cell_rule(frame, solid, cfg);
    const OccupancyGrid g = OccupancyGrid::from_binary(frame, solid, cfg);
    EXPECT_EQ(g.known_cells(), solid.size());
  }
  const OccupancyGrid g = OccupancyGrid::from_binary(frame, solid, underflow);
  EXPECT_EQ(static_cast<float>(g.log_odds_at({0, 0})), solid.at(0, 0) ? 1e-3f : -1e-3f);
}

}  // namespace
}  // namespace lgv::perception
