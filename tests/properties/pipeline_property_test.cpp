// Parameterized property sweeps across the perception/control pipeline and
// the network substrate.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "control/trajectory_rollout.h"
#include "net/wireless_channel.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/occupancy_grid.h"
#include "sim/lidar.h"
#include "sim/random_world.h"
#include "sim/scenario.h"

namespace lgv {
namespace {

// ---- costmap inflation: monotone decay for any (radius, scaling) -----------

struct InflationCase {
  double radius;
  double scaling;
};

class InflationMonotone : public ::testing::TestWithParam<InflationCase> {};

TEST_P(InflationMonotone, CostDecaysAwayFromObstacle) {
  const InflationCase c = GetParam();
  perception::CostmapConfig cfg;
  cfg.inflation_radius = c.radius;
  cfg.cost_scaling = c.scaling;
  perception::Costmap2D cm({0, 0}, 8.0, 8.0, cfg);

  msg::LaserScan beam;
  beam.angle_min = 0.0;
  beam.angle_max = 0.0;
  beam.angle_increment = 0.0;
  beam.range_min = 0.1;
  beam.range_max = 3.5;
  beam.ranges = {2.0f};
  cm.update({1.0, 4.0, 0.0}, beam);  // obstacle at (3.0, 4.0)

  uint8_t prev = perception::kCostLethal;
  for (double x = 3.0; x > 3.0 - c.radius - 0.3; x -= cm.frame().resolution) {
    const uint8_t cost = cm.cost_at(cm.frame().world_to_cell({x + 0.001, 4.02}));
    EXPECT_LE(cost, prev) << "x=" << x << " radius=" << c.radius;
    prev = cost;
  }
  // Beyond the inflation radius (plus a cell of slack): free.
  EXPECT_EQ(cm.cost_at(cm.frame().world_to_cell({3.0 - c.radius - 0.25, 4.02})),
            perception::kCostFreeSpace);
}

INSTANTIATE_TEST_SUITE_P(Configs, InflationMonotone,
                         ::testing::Values(InflationCase{0.3, 3.0},
                                           InflationCase{0.4, 6.0},
                                           InflationCase{0.6, 10.0},
                                           InflationCase{0.8, 2.0}));

// ---- rollout: the velocity cap binds for any cap × sample count ------------

// gtest names each case after a byte dump of the struct, so it must have no
// padding: uninitialised padding bytes would change the name on every run.
struct RolloutCase {
  double cap;
  int64_t samples;
};
static_assert(sizeof(RolloutCase) == sizeof(double) + sizeof(int64_t));

class RolloutCapBinds : public ::testing::TestWithParam<RolloutCase> {};

TEST_P(RolloutCapBinds, CommandNeverExceedsCap) {
  const RolloutCase c = GetParam();
  sim::World w(10.0, 10.0);
  perception::Costmap2D cm({0, 0}, 10.0, 10.0);
  cm.set_static_map(
      perception::OccupancyGrid::from_binary(w.frame(), w.grid()).to_msg(0.0));
  cm.inflate();
  msg::PathMsg path;
  for (double x = 1.0; x < 9.0; x += 0.25) path.poses.emplace_back(x, 5.0, 0.0);

  control::RolloutConfig rc;
  rc.samples = static_cast<int>(c.samples);
  control::TrajectoryRollout rollout(rc);
  platform::ExecutionContext ctx;
  // Start already at the cap so the window straddles it.
  const control::RolloutDecision d =
      rollout.compute(cm, path, {1.0, 5.0, 0.0}, {c.cap, 0.0}, c.cap, ctx);
  ASSERT_TRUE(d.feasible);
  EXPECT_LE(d.command.linear, c.cap + 1e-9);
  EXPECT_GE(d.command.linear, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RolloutCapBinds,
                         ::testing::Values(RolloutCase{0.1, 100}, RolloutCase{0.3, 200},
                                           RolloutCase{0.6, 600}, RolloutCase{0.9, 200},
                                           RolloutCase{0.22, 2000}));

// ---- channel: latency grows with payload size for any uplink rate ----------

class LatencyBytesMonotone : public ::testing::TestWithParam<double> {};

TEST_P(LatencyBytesMonotone, BiggerPayloadsTakeLonger) {
  net::ChannelConfig cfg;
  cfg.wap_position = {0, 0};
  cfg.shadowing_sigma_db = 0.0;
  cfg.latency_jitter_s = 0.0;
  cfg.uplink_rate_bps = GetParam();
  net::WirelessChannel ch(cfg);
  ch.set_robot_position({2.0, 0.0});
  double prev = -1.0;
  for (size_t bytes : {48u, 500u, 3000u, 20000u}) {
    const double latency = ch.sample_latency(bytes);
    EXPECT_GT(latency, prev);
    prev = latency;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, LatencyBytesMonotone,
                         ::testing::Values(2e6, 20e6, 100e6));

// ---- scenarios: every builder yields a usable environment ------------------

// Named, so the test name does not carry the builder's (ASLR-randomised)
// address.
struct ScenarioMaker {
  const char* name;
  sim::Scenario (*make)();
};

void PrintTo(const ScenarioMaker& m, std::ostream* os) { *os << m.name; }

class ScenarioContract : public ::testing::TestWithParam<ScenarioMaker> {};

TEST_P(ScenarioContract, ScanLogTraversesFreeSpace) {
  const sim::Scenario s = GetParam().make();
  const auto log = sim::record_scan_log(s, 0.4, 0.25, 40);
  ASSERT_GE(log.size(), 20u);
  for (const auto& e : log) {
    EXPECT_FALSE(s.world.occupied(e.true_pose.position()));
    EXPECT_EQ(e.scan.ranges.size(), 360u);
  }
}

TEST_P(ScenarioContract, LidarSeesSomethingFromStart) {
  const sim::Scenario s = GetParam().make();
  sim::Lidar lidar;
  const msg::LaserScan scan = lidar.scan(s.world, s.start, 0.0);
  int returns = 0;
  for (float r : scan.ranges) returns += r <= scan.range_max;
  EXPECT_GT(returns, 30);  // walls exist within lidar range
}

INSTANTIATE_TEST_SUITE_P(Builders, ScenarioContract,
                         ::testing::Values(
                             ScenarioMaker{"lab", &sim::make_lab_scenario},
                             ScenarioMaker{"office", &sim::make_office_scenario},
                             ScenarioMaker{"obstacle_course",
                                           &sim::make_obstacle_course_scenario},
                             ScenarioMaker{"open", &sim::make_open_scenario}));

// ---- AMCL: convergence from a wide prior across seeds ----------------------

class AmclConvergence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AmclConvergence, WidePriorShrinksToTruth) {
  sim::World w(8.0, 8.0);
  w.add_outer_walls(0.2);
  w.add_box({3.0, 3.0}, {4.2, 4.2});
  w.add_disc({6.0, 2.0}, 0.4);
  perception::OccupancyGridConfig mc;
  mc.resolution = 0.05;
  const perception::OccupancyGrid map =
      perception::OccupancyGrid::from_binary(w.frame(), w.grid(), mc);
  sim::LidarConfig lc;
  lc.range_noise_sigma = 0.005;
  sim::Lidar lidar(lc, GetParam());

  perception::Amcl amcl({}, &map, GetParam());
  const Pose2D truth{1.5, 1.5, 0.3};
  amcl.initialize(truth, /*spread_xy=*/0.3, /*spread_theta=*/0.35);
  platform::ExecutionContext ctx;
  msg::Odometry odom;
  odom.pose = truth;
  for (int i = 0; i < 15; ++i) {
    odom.header.stamp = 0.2 * i;
    amcl.update(odom, lidar.scan(w, truth, 0.2 * i), ctx);
  }
  EXPECT_LT(distance(amcl.estimate().position(), truth.position()), 0.35)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmclConvergence, ::testing::Values(3u, 17u, 91u));

}  // namespace
}  // namespace lgv
