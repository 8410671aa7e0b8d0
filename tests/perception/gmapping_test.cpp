#include "perception/gmapping.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "platform/calibration.h"
#include "sim/scenario.h"

namespace lgv::perception {
namespace {

GmappingConfig small_config(int particles = 10) {
  GmappingConfig cfg;
  cfg.particles = particles;
  cfg.matcher.beam_stride = 8;
  return cfg;
}

TEST(Gmapping, InitializeSetsAllParticles) {
  Gmapping slam(small_config(), {0, 0}, 8.0, 8.0);
  slam.initialize({2.0, 2.0, 0.5});
  EXPECT_EQ(slam.particle_count(), 10);
  for (size_t i = 0; i < slam.poses().size(); ++i) {
    EXPECT_EQ(slam.poses()[i], Pose2D(2.0, 2.0, 0.5));
  }
  EXPECT_DOUBLE_EQ(slam.neff(), 10.0);
}

TEST(Gmapping, EffectiveSampleSize) {
  EXPECT_DOUBLE_EQ(Gmapping::effective_sample_size({0.25, 0.25, 0.25, 0.25}), 4.0);
  EXPECT_DOUBLE_EQ(Gmapping::effective_sample_size({1.0, 0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(Gmapping::effective_sample_size({}), 0.0);
}

class GmappingLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario = sim::make_open_scenario();
    log = sim::record_scan_log(scenario, 0.4, 0.2, 60);
  }

  SlamUpdateStats feed(Gmapping& slam, platform::ExecutionContext& ctx, size_t count) {
    SlamUpdateStats last;
    slam.initialize(log[0].odom_pose);
    for (size_t i = 0; i < count && i < log.size(); ++i) {
      msg::Odometry odom;
      odom.pose = log[i].odom_pose;
      odom.header.stamp = log[i].scan.header.stamp;
      last = slam.process(odom, log[i].scan, ctx);
      ctx.reset();
    }
    return last;
  }

  sim::Scenario scenario{sim::make_open_scenario()};
  std::vector<sim::ScanLogEntry> log;
};

TEST_F(GmappingLogTest, TracksPoseBetterThanRawOdometry) {
  Gmapping slam(small_config(20), {0, 0}, 8.0, 8.0, 3);
  platform::ExecutionContext ctx;
  feed(slam, ctx, 60);
  const Pose2D truth = log[59].true_pose;
  const double slam_err = distance(slam.best_pose().position(), truth.position());
  const double odom_err = distance(log[59].odom_pose.position(), truth.position());
  // Over a short log odometry may still be decent; SLAM must stay bounded and
  // in the same ballpark or better.
  EXPECT_LT(slam_err, std::max(0.45, odom_err * 1.5));
}

TEST_F(GmappingLogTest, BuildsAMap) {
  Gmapping slam(small_config(10), {0, 0}, 8.0, 8.0, 3);
  platform::ExecutionContext ctx;
  feed(slam, ctx, 40);
  EXPECT_GT(slam.best_map().known_area_m2(), 10.0);
  // The central disc of the open scenario should appear occupied.
  const auto& map = slam.best_map();
  bool found_obstacle = false;
  for (int dy = -4; dy <= 4 && !found_obstacle; ++dy) {
    for (int dx = -4; dx <= 4 && !found_obstacle; ++dx) {
      CellIndex c = map.frame().world_to_cell({4.0, 4.0});
      c.x += dx;
      c.y += dy;
      found_obstacle = map.is_occupied(c);
    }
  }
  EXPECT_TRUE(found_obstacle);
}

TEST_F(GmappingLogTest, StatsReportWork) {
  Gmapping slam(small_config(10), {0, 0}, 8.0, 8.0, 3);
  platform::ExecutionContext ctx(nullptr, 4);
  slam.initialize(log[0].odom_pose);
  msg::Odometry odom;
  odom.pose = log[0].odom_pose;
  slam.process(odom, log[0].scan, ctx);  // first scan: map seeding only
  ctx.reset();
  odom.pose = log[1].odom_pose;
  const SlamUpdateStats stats = slam.process(odom, log[1].scan, ctx);
  EXPECT_GT(stats.beam_evaluations, 100u);
  EXPECT_GT(stats.map_cells_updated, 500u);
  EXPECT_GT(ctx.profile().total_cycles(), 1e6);
  ASSERT_FALSE(ctx.profile().regions.empty());
  EXPECT_EQ(ctx.profile().regions[0].chunks(), 4);
}

TEST_F(GmappingLogTest, ChargesOneConstantPerWorkUnit) {
  // One calibration prices every beam evaluation, whichever scorer computes
  // it: a serial update costs exactly its counted work at the Table II
  // constants. The likelihood field's first full build happens inside this
  // update and is a host cache, so it adds nothing.
  Gmapping slam(small_config(10), {0, 0}, 8.0, 8.0, 3);
  platform::ExecutionContext ctx;
  slam.initialize(log[0].odom_pose);
  msg::Odometry odom;
  odom.pose = log[0].odom_pose;
  slam.process(odom, log[0].scan, ctx);  // first scan: map seeding only
  ctx.reset();
  odom.pose = log[1].odom_pose;
  const SlamUpdateStats stats = slam.process(odom, log[1].scan, ctx);
  ASSERT_GT(stats.beam_evaluations, 0u);
  EXPECT_EQ(ctx.profile().total_cycles(),
            static_cast<double>(stats.beam_evaluations) *
                    platform::calib::kScanMatchCyclesPerBeamEval +
                static_cast<double>(stats.map_cells_updated) *
                    platform::calib::kMapUpdateCyclesPerCell +
                static_cast<double>(slam.particle_count()) *
                    platform::calib::kResampleCyclesPerParticle);
}

TEST_F(GmappingLogTest, ParallelAndSerialProduceSameWorkScale) {
  // Fig. 6's parallelization must not change the computation, only its
  // schedule: total beam evaluations stay within a few percent (they are not
  // bit-identical because per-particle RNG draws depend on thread order only
  // through nothing — particles own their RNGs, so they are identical).
  Gmapping serial_slam(small_config(8), {0, 0}, 8.0, 8.0, 11);
  Gmapping parallel_slam(small_config(8), {0, 0}, 8.0, 8.0, 11);
  ThreadPool pool(4);
  platform::ExecutionContext ser(nullptr, 1);
  platform::ExecutionContext par(&pool, 4);
  const SlamUpdateStats s1 = feed(serial_slam, ser, 10);
  const SlamUpdateStats s2 = feed(parallel_slam, par, 10);
  EXPECT_EQ(s1.beam_evaluations, s2.beam_evaluations);
  EXPECT_EQ(s1.map_cells_updated, s2.map_cells_updated);
  EXPECT_EQ(serial_slam.best_pose(), parallel_slam.best_pose());
}

TEST_F(GmappingLogTest, ResamplingKeepsParticleCountAndResetsNeff) {
  GmappingConfig cfg = small_config(12);
  cfg.resample_threshold = 1.1;  // force resampling every update
  Gmapping slam(cfg, {0, 0}, 8.0, 8.0, 5);
  platform::ExecutionContext ctx;
  const SlamUpdateStats stats = feed(slam, ctx, 6);
  EXPECT_TRUE(stats.resampled);
  EXPECT_EQ(slam.particle_count(), 12);
  EXPECT_NEAR(slam.neff(), 12.0, 1e-9);
}

TEST_F(GmappingLogTest, StateMigrationRoundTrip) {
  // Algorithm 2's state migration: serialize the filter on one "host" and
  // restore it on another; the restored filter must produce the same pose
  // and map, and keep functioning on further scans.
  Gmapping source(small_config(8), {0, 0}, 8.0, 8.0, 21);
  platform::ExecutionContext ctx;
  feed(source, ctx, 20);

  const std::vector<uint8_t> state = source.serialize_state();
  EXPECT_GT(state.size(), 10000u);  // particle maps dominate the payload

  Gmapping target(small_config(8), {0, 0}, 8.0, 8.0, 99);
  target.restore_state(state);
  EXPECT_EQ(target.particle_count(), source.particle_count());
  EXPECT_EQ(target.best_pose(), source.best_pose());
  EXPECT_EQ(target.best_map().known_cells(), source.best_map().known_cells());
  EXPECT_DOUBLE_EQ(target.neff(), source.neff());

  // The restored filter keeps tracking.
  platform::ExecutionContext ctx2;
  for (size_t i = 20; i < 30; ++i) {
    msg::Odometry odom;
    odom.pose = log[i].odom_pose;
    target.process(odom, log[i].scan, ctx2);
  }
  EXPECT_LT(distance(target.best_pose().position(), log[29].true_pose.position()),
            0.6);
}

TEST(OccupancyGridState, SerializeRoundTripIsLossless) {
  const sim::Scenario scenario = sim::make_open_scenario();
  const auto log = sim::record_scan_log(scenario, 0.4, 0.2, 10);
  OccupancyGrid g({0, 0}, 8.0, 8.0);
  for (const auto& e : log) g.integrate_scan(e.true_pose, e.scan);

  WireWriter w;
  g.serialize(w);
  WireReader r(w.buffer());
  const OccupancyGrid back = OccupancyGrid::deserialize(r);
  EXPECT_EQ(back.width(), g.width());
  EXPECT_EQ(back.height(), g.height());
  EXPECT_EQ(back.known_cells(), g.known_cells());
  EXPECT_EQ(back.frame(), g.frame());
  for (int y = 0; y < g.height(); ++y) {
    for (int x = 0; x < g.width(); ++x) {
      ASSERT_DOUBLE_EQ(back.log_odds_at({x, y}), g.log_odds_at({x, y}))
          << x << "," << y;
    }
  }
}

TEST(GmappingParam, WorkScalesLinearlyWithParticles) {
  // The Fig. 9 premise: particles are the computation-complexity knob.
  const sim::Scenario scenario = sim::make_open_scenario();
  const auto log = sim::record_scan_log(scenario, 0.4, 0.2, 6);
  auto total_cycles = [&](int particles) {
    Gmapping slam(small_config(particles), {0, 0}, 8.0, 8.0, 3);
    platform::ExecutionContext ctx;
    slam.initialize(log[0].odom_pose);
    for (const auto& e : log) {
      msg::Odometry odom;
      odom.pose = e.odom_pose;
      slam.process(odom, e.scan, ctx);
    }
    return ctx.profile().total_cycles();
  };
  const double c10 = total_cycles(10);
  const double c30 = total_cycles(30);
  EXPECT_GT(c30, 2.0 * c10);
  EXPECT_LT(c30, 4.5 * c10);
}

}  // namespace
}  // namespace lgv::perception
