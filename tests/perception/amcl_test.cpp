#include "perception/amcl.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/simd.h"
#include "sim/lidar.h"
#include "sim/scenario.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

class AmclTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world = std::make_unique<sim::World>(8.0, 8.0);
    world->add_outer_walls(0.2);
    world->add_box({3.5, 3.5}, {4.5, 4.5});
    world->add_disc({6.0, 2.0}, 0.4);
    OccupancyGridConfig cfg;
    cfg.resolution = 0.05;
    map = std::make_unique<OccupancyGrid>(
        OccupancyGrid::from_binary(world->frame(), world->grid(), cfg));
    sim::LidarConfig lc;
    lc.range_noise_sigma = 0.005;
    lidar = std::make_unique<sim::Lidar>(lc, 5);
  }

  msg::Odometry odom_at(const Pose2D& p, double stamp) {
    msg::Odometry o;
    o.pose = p;
    o.header.stamp = stamp;
    return o;
  }

  std::unique_ptr<sim::World> world;
  std::unique_ptr<OccupancyGrid> map;
  std::unique_ptr<sim::Lidar> lidar;
};

TEST_F(AmclTest, InitializeConcentratesParticles) {
  Amcl amcl({}, map.get());
  amcl.initialize({2.0, 2.0, 0.0});
  const Pose2D est = amcl.estimate();
  EXPECT_NEAR(est.x, 2.0, 0.2);
  EXPECT_NEAR(est.y, 2.0, 0.2);
}

TEST_F(AmclTest, TracksAMovingRobot) {
  Amcl amcl({}, map.get(), 17);
  Pose2D truth{1.5, 1.5, 0.0};
  Pose2D odom = truth;
  amcl.initialize(truth);
  platform::ExecutionContext ctx;
  Rng rng(23);
  double t = 0.0;
  for (int i = 0; i < 40; ++i) {
    // Move east 5 cm per step with odometry noise.
    truth = Pose2D(truth.x + 0.05, truth.y, 0.0);
    odom = Pose2D(odom.x + 0.05 + rng.gaussian(0.0, 0.002),
                  odom.y + rng.gaussian(0.0, 0.002), rng.gaussian(0.0, 0.002));
    t += 0.2;
    amcl.update(odom_at(odom, t), lidar->scan(*world, truth, t), ctx);
  }
  const Pose2D est = amcl.estimate();
  EXPECT_LT(distance(est.position(), truth.position()), 0.3);
}

TEST_F(AmclTest, AdaptiveParticleCountShrinksWhenConverged) {
  AmclConfig cfg;
  cfg.min_particles = 50;
  cfg.max_particles = 500;
  Amcl amcl(cfg, map.get(), 9);
  amcl.initialize({2.0, 2.0, 0.0}, 0.4, 0.4);  // wide spread
  const int initial = amcl.particle_count();
  platform::ExecutionContext ctx;
  Pose2D truth{2.0, 2.0, 0.0};
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    t += 0.2;
    amcl.update(odom_at(truth, t), lidar->scan(*world, truth, t), ctx);
  }
  // KLD adaptation: converged estimate needs fewer particles.
  EXPECT_LE(amcl.particle_count(), initial);
  EXPECT_GE(amcl.particle_count(), cfg.min_particles);
}

TEST_F(AmclTest, GlobalInitializationPlacesParticlesInFreeSpace) {
  Amcl amcl({}, map.get(), 31);
  amcl.initialize_global(200);
  EXPECT_EQ(amcl.particle_count(), 200);
}

TEST_F(AmclTest, WorkChargedToContext) {
  Amcl amcl({}, map.get());
  amcl.initialize({2.0, 2.0, 0.0});
  platform::ExecutionContext ctx;
  amcl.update(odom_at({2.0, 2.0, 0.0}, 0.2), lidar->scan(*world, {2.0, 2.0, 0.0}, 0.2),
              ctx);
  EXPECT_GT(ctx.profile().total_cycles(), 1e5);
}

TEST_F(AmclTest, StatsParticleCountMatches) {
  Amcl amcl({}, map.get());
  amcl.initialize({2.0, 2.0, 0.0});
  platform::ExecutionContext ctx;
  // First update establishes the odometry reference; the second weighs beams.
  amcl.update(odom_at({2.0, 2.0, 0.0}, 0.2), lidar->scan(*world, {2.0, 2.0, 0.0}, 0.2),
              ctx);
  const AmclUpdateStats stats = amcl.update(
      odom_at({2.0, 2.0, 0.0}, 0.4), lidar->scan(*world, {2.0, 2.0, 0.0}, 0.4), ctx);
  EXPECT_EQ(stats.particle_count, amcl.particle_count());
  EXPECT_GT(stats.beam_evaluations, 0u);
}

TEST_F(AmclTest, UpdatesIdenticalAtEveryLevel) {
  // 50 updates along a lab path, the same scans and seed at every level: the
  // vector measurement model must leave the same particles, weights, stats
  // and charged cycles as the scalar reference.
  const sim::Scenario lab = sim::make_lab_scenario();
  const OccupancyGrid lab_map =
      OccupancyGrid::from_binary(lab.world.frame(), lab.world.grid(), {});
  std::vector<msg::Odometry> odoms;
  std::vector<msg::LaserScan> scans;
  sim::Lidar lab_lidar({}, 21);
  for (int k = 0; k < 50; ++k) {
    const double f = k / 49.0;
    const Pose2D pose{lab.start.x + (lab.goal.x - lab.start.x) * 0.6 * f,
                      lab.start.y + (lab.goal.y - lab.start.y) * 0.6 * f, 0.05 * k};
    odoms.push_back(odom_at(pose, 0.2 * k));
    scans.push_back(lab_lidar.scan(lab.world, pose, 0.2 * k));
  }
  struct Run {
    Amcl amcl;
    std::vector<AmclUpdateStats> stats;
    double cycles = 0.0;
  };
  const auto run = [&](simd::Level level) {
    simd::force_level(level);
    Run r{Amcl({}, &lab_map, 77), {}, 0.0};
    r.amcl.initialize(lab.start);
    platform::ExecutionContext ctx;
    for (size_t k = 0; k < odoms.size(); ++k) {
      r.stats.push_back(r.amcl.update(odoms[k], scans[k], ctx));
    }
    r.cycles = ctx.profile().total_cycles();
    simd::clear_forced_level();
    return r;
  };
  const auto same_bits = [](const double* a, const double* b, size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
  };
  const Run ref = run(simd::Level::kScalar);
  ASSERT_GT(ref.stats.back().beam_evaluations, 0u);
  for (simd::Level level : {simd::Level::kSSE2, simd::Level::kAVX2}) {
    if (simd::detected_level() < level) continue;
    const Run got = run(level);
    const size_t n = ref.amcl.poses().size();
    ASSERT_EQ(got.amcl.poses().size(), n) << simd::level_name(level);
    EXPECT_TRUE(same_bits(got.amcl.poses().x(), ref.amcl.poses().x(), n));
    EXPECT_TRUE(same_bits(got.amcl.poses().y(), ref.amcl.poses().y(), n));
    EXPECT_TRUE(same_bits(got.amcl.poses().theta(), ref.amcl.poses().theta(), n));
    EXPECT_TRUE(same_bits(got.amcl.weights().data(), ref.amcl.weights().data(), n));
    for (size_t k = 0; k < ref.stats.size(); ++k) {
      EXPECT_EQ(got.stats[k].beam_evaluations, ref.stats[k].beam_evaluations) << k;
      EXPECT_EQ(got.stats[k].resampled, ref.stats[k].resampled) << k;
      EXPECT_EQ(got.stats[k].particle_count, ref.stats[k].particle_count) << k;
      EXPECT_TRUE(same_bits(&got.stats[k].neff, &ref.stats[k].neff, 1)) << k;
    }
    EXPECT_EQ(got.cycles, ref.cycles) << simd::level_name(level);
  }
}

}  // namespace
}  // namespace lgv::perception
