// Tests for the likelihood-field scan-match cache: score equivalence against
// the brute-force reference scorers (scan matching and AMCL) on randomized
// maps and poses, incremental sync against full rebuild, and the
// derived-state lifecycle across particle copies and map migration.
#include "perception/likelihood_field.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/serialization.h"
#include "perception/amcl.h"
#include "perception/scan_matcher.h"
#include "platform/calibration.h"
#include "sim/lidar.h"
#include "sim/world.h"

namespace lgv::perception {
namespace {

/// A world with a few deterministic-random boxes, mapped by lidar scans from
/// random free poses — produces occupied, free, and unknown regions.
struct RandomMapFixture {
  explicit RandomMapFixture(uint64_t seed) : rng(seed) {
    world = std::make_unique<sim::World>(10.0, 10.0);
    world->add_outer_walls(0.2);
    for (int i = 0; i < 4; ++i) {
      const double x = rng.uniform(1.5, 7.5);
      const double y = rng.uniform(1.5, 7.5);
      world->add_box({x, y}, {x + rng.uniform(0.4, 1.2), y + rng.uniform(0.4, 1.2)});
    }
    sim::LidarConfig lc;
    lc.range_noise_sigma = 0.0;
    lidar = std::make_unique<sim::Lidar>(lc, seed ^ 0x11d);

    OccupancyGridConfig cfg;
    cfg.resolution = 0.1;
    map = std::make_unique<OccupancyGrid>(Point2D{0, 0}, 10.0, 10.0, cfg);
    for (int i = 0; i < 6; ++i) {
      const Pose2D p = random_free_pose();
      map->integrate_scan(p, lidar->scan(*world, p, 0.0));
    }
  }

  Pose2D random_free_pose() {
    while (true) {
      const Pose2D p{rng.uniform(0.6, 9.4), rng.uniform(0.6, 9.4),
                     rng.uniform(-3.1, 3.1)};
      if (!world->grid().at(world->frame().world_to_cell(p.position()))) return p;
    }
  }

  Rng rng;
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::Lidar> lidar;
  std::unique_ptr<OccupancyGrid> map;
};

TEST(LikelihoodField, EntriesMirrorMapClassification) {
  RandomMapFixture fx(7);
  LikelihoodField field;
  field.sync(*fx.map);
  ASSERT_TRUE(field.in_sync_with(*fx.map));
  // Every cell (pad ring included) must agree with the map's own predicates.
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      const CellIndex c{x, y};
      ASSERT_EQ(field.occupied(c), fx.map->is_occupied(c)) << x << "," << y;
      ASSERT_EQ(field.unknown(c), fx.map->is_unknown(c)) << x << "," << y;
      bool any = false;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          any = any || fx.map->is_occupied({x + dx, y + dy});
        }
      }
      ASSERT_EQ(field.has_obstacle_near(c), any) << x << "," << y;
    }
  }
  // Far outside the pad ring: unknown, no obstacles.
  EXPECT_TRUE(field.unknown({-5, -5}));
  EXPECT_FALSE(field.has_obstacle_near({-5, 1000}));
}

TEST(LikelihoodField, MinObstacleD2MatchesBruteForce) {
  RandomMapFixture fx(11);
  LikelihoodField field;
  field.sync(*fx.map);
  for (int trial = 0; trial < 200; ++trial) {
    const Point2D p{fx.rng.uniform(-0.5, 10.5), fx.rng.uniform(-0.5, 10.5)};
    const CellIndex c = fx.map->frame().world_to_cell(p);
    double expected = std::numeric_limits<double>::infinity();
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const CellIndex n{c.x + dx, c.y + dy};
        if (!fx.map->is_occupied(n)) continue;
        const Point2D cw = fx.map->frame().cell_to_world(n);
        expected = std::min(expected,
                            (cw.x - p.x) * (cw.x - p.x) + (cw.y - p.y) * (cw.y - p.y));
      }
    }
    EXPECT_EQ(field.min_obstacle_d2(c, p), expected) << trial;
  }
}

TEST(LikelihoodField, ScoreMatchesBruteForceOnRandomizedMapsAndPoses) {
  for (uint64_t seed : {3u, 19u, 42u}) {
    RandomMapFixture fx(seed);
    LikelihoodField field;
    field.sync(*fx.map);
    ScanMatcher matcher;
    for (int trial = 0; trial < 30; ++trial) {
      const Pose2D scan_pose = fx.random_free_pose();
      const msg::LaserScan scan = fx.lidar->scan(*fx.world, scan_pose, 0.0);
      const PrecomputedScan scan_pre = precompute_scan(
          scan, matcher.config().beam_stride, fx.map->frame().resolution);
      // Score both at the scan pose and at random perturbations of it.
      for (int k = 0; k < 4; ++k) {
        const Pose2D pose{scan_pose.x + fx.rng.gaussian(0.0, 0.1),
                          scan_pose.y + fx.rng.gaussian(0.0, 0.1),
                          scan_pose.theta + fx.rng.gaussian(0.0, 0.05)};
        size_t brute_evals = 0, cached_evals = 0;
        const double brute = matcher.score(*fx.map, pose, scan, &brute_evals);
        const double cached = matcher.score(field, pose, scan_pre, &cached_evals);
        EXPECT_EQ(brute_evals, cached_evals);
        EXPECT_NEAR(brute, cached, 1e-9 * std::max(1.0, std::abs(brute)))
            << "seed " << seed << " trial " << trial << " k " << k;
      }
    }
  }
}

TEST(LikelihoodField, MatchSelectsSamePoseAsBruteForce) {
  for (uint64_t seed : {5u, 23u}) {
    RandomMapFixture fx(seed);
    LikelihoodField field;
    field.sync(*fx.map);
    ScanMatcher matcher;
    for (int trial = 0; trial < 10; ++trial) {
      const Pose2D truth = fx.random_free_pose();
      const msg::LaserScan scan = fx.lidar->scan(*fx.world, truth, 0.0);
      const Pose2D perturbed{truth.x + fx.rng.gaussian(0.0, 0.06),
                             truth.y + fx.rng.gaussian(0.0, 0.06),
                             truth.theta + fx.rng.gaussian(0.0, 0.03)};
      const MatchResult brute = matcher.match(*fx.map, perturbed, scan);
      const MatchResult cached = matcher.match(field, perturbed, scan);
      // Candidate poses are generated identically on both paths, so equal
      // selection means bit-equal poses.
      EXPECT_EQ(brute.pose, cached.pose) << "seed " << seed << " trial " << trial;
      EXPECT_EQ(brute.beam_evaluations, cached.beam_evaluations);
      EXPECT_NEAR(brute.score, cached.score,
                  1e-9 * std::max(1.0, std::abs(brute.score)));
    }
  }
}

TEST(LikelihoodField, IncrementalSyncEqualsFullRebuild) {
  RandomMapFixture fx(29);
  LikelihoodField incremental;
  incremental.sync(*fx.map);
  const size_t full_cells = static_cast<size_t>(fx.map->width() + 2) *
                            static_cast<size_t>(fx.map->height() + 2);
  for (int step = 0; step < 5; ++step) {
    const Pose2D p = fx.random_free_pose();
    const msg::LaserScan scan = fx.lidar->scan(*fx.world, p, 0.0);
    // A scan over fresh territory may flip more cells than the changelog
    // holds — that legitimately falls back to a full rebuild. Integrating the
    // same scan twice makes the second pass flip almost nothing, which must
    // take the incremental path.
    fx.map->integrate_scan(p, scan);
    incremental.sync(*fx.map);
    fx.map->integrate_scan(p, scan);
    const size_t rebuilt = incremental.sync(*fx.map);
    EXPECT_LT(rebuilt, full_cells) << "step " << step;
    LikelihoodField fresh;
    fresh.sync(*fx.map);
    for (int y = -1; y <= fx.map->height(); ++y) {
      for (int x = -1; x <= fx.map->width(); ++x) {
        ASSERT_EQ(incremental.entry({x, y}), fresh.entry({x, y}))
            << "step " << step << " cell " << x << "," << y;
      }
    }
  }
  // In-sync field syncs for free.
  EXPECT_EQ(incremental.sync(*fx.map), 0u);
}

TEST(LikelihoodField, ChangelogOverflowFallsBackToFullRebuild) {
  RandomMapFixture fx(31);
  LikelihoodField field;
  field.sync(*fx.map);
  // Integrate many scans without syncing so the bounded changelog overflows.
  for (int i = 0; i < 200; ++i) {
    const Pose2D p = fx.random_free_pose();
    fx.map->integrate_scan(p, fx.lidar->scan(*fx.world, p, 0.0));
  }
  field.sync(*fx.map);
  LikelihoodField fresh;
  fresh.sync(*fx.map);
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      ASSERT_EQ(field.entry({x, y}), fresh.entry({x, y})) << x << "," << y;
    }
  }
}

TEST(LikelihoodField, CopiedMapAndFieldStayConsistent) {
  // Particle resampling copies (map, field) pairs; diverging the copies must
  // keep each field consistent with its own map.
  RandomMapFixture fx(37);
  LikelihoodField field;
  field.sync(*fx.map);

  OccupancyGrid map_b = *fx.map;   // resampled particle's deep copy
  LikelihoodField field_b = field;
  EXPECT_TRUE(field_b.in_sync_with(map_b));

  const Pose2D pa = fx.random_free_pose();
  const Pose2D pb = fx.random_free_pose();
  fx.map->integrate_scan(pa, fx.lidar->scan(*fx.world, pa, 0.0));
  map_b.integrate_scan(pb, fx.lidar->scan(*fx.world, pb, 0.0));
  field.sync(*fx.map);
  field_b.sync(map_b);

  LikelihoodField fresh_a, fresh_b;
  fresh_a.sync(*fx.map);
  fresh_b.sync(map_b);
  for (int y = -1; y <= fx.map->height(); ++y) {
    for (int x = -1; x <= fx.map->width(); ++x) {
      ASSERT_EQ(field.entry({x, y}), fresh_a.entry({x, y})) << x << "," << y;
      ASSERT_EQ(field_b.entry({x, y}), fresh_b.entry({x, y})) << x << "," << y;
    }
  }
}

TEST(LikelihoodField, MigratedMapForcesRebuild) {
  // Algorithm 2 ships the map, never the field: a field synced against the
  // source map must not believe it is current for the deserialized copy.
  RandomMapFixture fx(41);
  LikelihoodField field;
  field.sync(*fx.map);

  WireWriter w;
  fx.map->serialize(w);
  WireReader r(w.buffer());
  const OccupancyGrid restored = OccupancyGrid::deserialize(r);
  EXPECT_FALSE(field.in_sync_with(restored));

  LikelihoodField rebuilt;
  EXPECT_GT(rebuilt.sync(restored), 0u);
  for (int y = -1; y <= restored.height(); ++y) {
    for (int x = -1; x <= restored.width(); ++x) {
      ASSERT_EQ(rebuilt.entry({x, y}), field.entry({x, y})) << x << "," << y;
    }
  }
}

/// Brute-force AMCL measurement model: per-beam trig and a 3×3 occupancy
/// probe around each endpoint. The filter weighs particles through the
/// likelihood field instead; this is the reference it must reproduce.
double reference_log_weight(const OccupancyGrid& map, const AmclConfig& cfg,
                            const Pose2D& pose, const msg::LaserScan& scan,
                            size_t* evals) {
  double log_w = 0.0;
  for (size_t i = 0; i < scan.ranges.size(); i += static_cast<size_t>(cfg.beam_stride)) {
    const double r = static_cast<double>(scan.ranges[i]);
    if (r > scan.range_max || r < scan.range_min) continue;
    ++(*evals);
    const double angle = pose.theta + scan.angle_of(i);
    const Point2D end{pose.x + std::cos(angle) * r, pose.y + std::sin(angle) * r};
    const CellIndex c = map.frame().world_to_cell(end);
    double d2_min = 9.0 * cfg.sigma_hit * cfg.sigma_hit;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const CellIndex cc{c.x + dx, c.y + dy};
        if (!map.is_occupied(cc)) continue;
        const double d = distance(map.frame().cell_to_world(cc), end);
        d2_min = std::min(d2_min, d * d);
      }
    }
    const double p_hit = std::exp(-d2_min / (2.0 * cfg.sigma_hit * cfg.sigma_hit));
    log_w += std::log(cfg.z_hit * p_hit + cfg.z_rand + 1e-6);
  }
  return log_w;
}

TEST(LikelihoodField, AmclWeightsMatchBruteForceReference) {
  // With resampling off, the weights after the first weighed update are the
  // normalized likelihoods of the filter's own particles, so they must equal
  // the brute-force model's — and the update must be charged one Table II
  // constant per beam evaluation, whichever model computed it.
  RandomMapFixture fx(47);
  AmclConfig cfg;
  cfg.resample_threshold = 0.0;
  Amcl amcl(cfg, fx.map.get(), 99);
  const Pose2D start = fx.random_free_pose();
  amcl.initialize(start);

  platform::ExecutionContext ctx;
  msg::Odometry odom;
  odom.pose = start;
  odom.header.stamp = 0.2;
  amcl.update(odom, fx.lidar->scan(*fx.world, start, 0.2), ctx);  // odometry anchor
  ctx.reset();
  odom.header.stamp = 0.4;
  const msg::LaserScan scan = fx.lidar->scan(*fx.world, start, 0.4);
  const AmclUpdateStats stats = amcl.update(odom, scan, ctx);
  ASSERT_FALSE(stats.resampled);

  const size_t n = amcl.poses().size();
  std::vector<double> expected(n);
  size_t evals = 0;
  for (size_t i = 0; i < n; ++i) {
    expected[i] = reference_log_weight(*fx.map, cfg, amcl.poses()[i], scan, &evals);
  }
  const double max_log = *std::max_element(expected.begin(), expected.end());
  double sum = 0.0;
  for (double& w : expected) {
    w = std::exp(w - max_log);
    sum += w;
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(amcl.weights()[i], expected[i] / sum, 1e-9) << "particle " << i;
  }
  EXPECT_EQ(stats.beam_evaluations, evals);
  EXPECT_EQ(ctx.profile().total_cycles(),
            static_cast<double>(evals) * platform::calib::kAmclCyclesPerBeamEval +
                static_cast<double>(n) * platform::calib::kAmclMotionCyclesPerParticle);
}

}  // namespace
}  // namespace lgv::perception
