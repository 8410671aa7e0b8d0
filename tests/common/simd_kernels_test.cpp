// Equivalence of the vectorized scanMatch building blocks against their
// scalar reference semantics, at every level this build/CPU can run:
//  - exp_array vs std::exp (the kernel promises ≤2 ulp),
//  - transform_project vs the scalar transform+projection — bit-identical,
//    cells compared with EXPECT_EQ (branch decisions must never diverge),
//  - score_hits vs a scalar replay of the 9-neighbor min-d² + exp sum,
//  - the full ScanMatcher::score under forced levels on randomized maps,
//    scans and awkward lengths (tail lanes: n = 1, 2, 3, 5, 7, 9, 33).
// Unavailable levels GTEST_SKIP so the suite is meaningful on any host.
#include "common/simd_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/soa.h"
#include "perception/likelihood_field.h"
#include "perception/scan_matcher.h"
#include "sim/lidar.h"
#include "sim/world.h"

namespace lgv {
namespace {

std::vector<simd::Level> vector_levels() {
  std::vector<simd::Level> out;
  if (simd::detected_level() >= simd::Level::kSSE2) out.push_back(simd::Level::kSSE2);
  if (simd::detected_level() >= simd::Level::kAVX2) out.push_back(simd::Level::kAVX2);
  return out;
}

/// Pins simd::active_level() for a scope (and restores on exit).
struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::clear_forced_level(); }
};

TEST(SimdKernels, ExpArrayMatchesLibmWithinUlps) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector unit";
  Rng rng(77);
  std::vector<double> x;
  // The score path feeds −d²/2σ² ∈ [−large, 0]; also sweep positives and the
  // extremes where the range reduction has to behave.
  for (int i = 0; i < 4096; ++i) x.push_back(rng.uniform(-60.0, 10.0));
  x.insert(x.end(), {0.0, -0.0, 1.0, -1.0, -708.0, 700.0, 1e-17, -1e-17});
  std::vector<double> out(x.size());
  for (simd::Level level : levels) {
    simd::exp_array(level, x.data(), out.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      const double ref = std::exp(x[i]);
      // 2 ulp ≈ 4.4e−16 relative; allow a little slack for the subnormal end.
      EXPECT_NEAR(out[i], ref, std::abs(ref) * 5e-15 + 1e-300)
          << simd::level_name(level) << " x=" << x[i];
    }
  }
}

TEST(SimdKernels, TransformProjectBitIdenticalToScalar) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector unit";
  Rng rng(101);
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 9u, 33u, 257u}) {
    aligned_vector<double> ex(n), ey(n), bx(n), by(n);
    for (size_t i = 0; i < n; ++i) {
      ex[i] = rng.uniform(-8.0, 8.0);
      ey[i] = rng.uniform(-8.0, 8.0);
      bx[i] = ex[i] * 0.98;
      by[i] = ey[i] * 0.98;
    }
    const double px = rng.uniform(-2.0, 10.0), py = rng.uniform(-2.0, 10.0);
    const double theta = rng.uniform(-3.1, 3.1);
    const double cos_t = std::cos(theta), sin_t = std::sin(theta);
    const double ox = -0.35, oy = 0.15, res = 0.05;

    aligned_vector<double> wx(n), wy(n);
    std::vector<int32_t> ecx(n), ecy(n), bcx(n), bcy(n);
    simd::TransformProjectArgs args;
    args.n = n;
    args.end_x = ex.data();
    args.end_y = ey.data();
    args.before_x = bx.data();
    args.before_y = by.data();
    args.pose_x = px;
    args.pose_y = py;
    args.cos_t = cos_t;
    args.sin_t = sin_t;
    args.origin_x = ox;
    args.origin_y = oy;
    args.resolution = res;
    args.out_end_x = wx.data();
    args.out_end_y = wy.data();
    args.out_end_cx = ecx.data();
    args.out_end_cy = ecy.data();
    args.out_before_cx = bcx.data();
    args.out_before_cy = bcy.data();

    for (simd::Level level : levels) {
      simd::transform_project(level, args);
      for (size_t i = 0; i < n; ++i) {
        // The scalar reference sequence, verbatim from ScanMatcher::score.
        const double sx = px + cos_t * ex[i] - sin_t * ey[i];
        const double sy = py + sin_t * ex[i] + cos_t * ey[i];
        const double sbx = px + cos_t * bx[i] - sin_t * by[i];
        const double sby = py + sin_t * bx[i] + cos_t * by[i];
        ASSERT_EQ(wx[i], sx) << simd::level_name(level) << " n=" << n << " i=" << i;
        ASSERT_EQ(wy[i], sy) << simd::level_name(level) << " n=" << n << " i=" << i;
        ASSERT_EQ(ecx[i], static_cast<int>(std::floor((sx - ox) / res)));
        ASSERT_EQ(ecy[i], static_cast<int>(std::floor((sy - oy) / res)));
        ASSERT_EQ(bcx[i], static_cast<int>(std::floor((sbx - ox) / res)));
        ASSERT_EQ(bcy[i], static_cast<int>(std::floor((sby - oy) / res)));
      }
      // Without free-space points (AMCL's call) the endpoint outputs are the
      // same and the free-space outputs, null here, are never written.
      simd::TransformProjectArgs ends_only = args;
      aligned_vector<double> wx2(n), wy2(n);
      std::vector<int32_t> ecx2(n), ecy2(n);
      ends_only.before_x = ends_only.before_y = nullptr;
      ends_only.out_before_cx = ends_only.out_before_cy = nullptr;
      ends_only.out_end_x = wx2.data();
      ends_only.out_end_y = wy2.data();
      ends_only.out_end_cx = ecx2.data();
      ends_only.out_end_cy = ecy2.data();
      simd::transform_project(level, ends_only);
      EXPECT_EQ(std::memcmp(wx2.data(), wx.data(), n * sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(wy2.data(), wy.data(), n * sizeof(double)), 0);
      EXPECT_EQ(ecx2, ecx) << simd::level_name(level) << " n=" << n;
      EXPECT_EQ(ecy2, ecy) << simd::level_name(level) << " n=" << n;
    }
  }
}

// AMCL's neighbour minimum: the same bits as LikelihoodField::min_obstacle_d2
// for every endpoint, empty masks (+infinity) and pad-ring cells included.
TEST(SimdKernels, MinObstacleD2BitIdenticalToField) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector unit";
  Rng rng(303);
  GridFrame frame;
  frame.origin = {-0.35, 0.15};
  frame.resolution = 0.05;
  Grid<uint8_t> solid(80, 60, 0);
  for (uint8_t& cell : solid.data()) cell = rng.uniform() < 0.15 ? 1 : 0;
  const perception::OccupancyGrid map = perception::OccupancyGrid::from_binary(frame, solid);
  perception::LikelihoodField field;
  field.sync(map);
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 9u, 33u, 257u}) {
    aligned_vector<double> ex(n), ey(n), d2(n);
    std::vector<int32_t> cx(n), cy(n), mask(n);
    size_t empty = 0;
    for (size_t i = 0; i < n; ++i) {
      // Endpoints over the map and a little beyond it.
      const Point2D p{rng.uniform(-0.45, 3.75), rng.uniform(0.05, 3.25)};
      const CellIndex c = frame.world_to_cell(p);
      ex[i] = p.x;
      ey[i] = p.y;
      cx[i] = c.x;
      cy[i] = c.y;
      mask[i] = field.entry(c) & perception::LikelihoodField::kNeighborMask;
      empty += mask[i] == 0 ? 1 : 0;
    }
    simd::NeighborArgs args;
    args.n = n;
    args.end_x = ex.data();
    args.end_y = ey.data();
    args.cell_x = cx.data();
    args.cell_y = cy.data();
    args.neighbor_mask = mask.data();
    args.origin_x = frame.origin.x;
    args.origin_y = frame.origin.y;
    args.resolution = frame.resolution;
    if (n == 257) {
      EXPECT_GT(empty, 0u);
    }
    for (simd::Level level : levels) {
      simd::min_obstacle_d2(level, args, d2.data());
      for (size_t i = 0; i < n; ++i) {
        const double ref = field.min_obstacle_d2({cx[i], cy[i]}, {ex[i], ey[i]});
        ASSERT_EQ(std::memcmp(&d2[i], &ref, sizeof(double)), 0)
            << simd::level_name(level) << " n=" << n << " i=" << i << ": " << d2[i]
            << " vs " << ref;
      }
    }
  }
}

TEST(SimdKernels, ScoreHitsMatchesScalarReplay) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector unit";
  Rng rng(202);
  const double ox = 0.0, oy = 0.0, res = 0.1;
  const double sigma = 0.12;
  const double two_sigma2 = 2.0 * sigma * sigma;
  for (size_t n : {1u, 2u, 3u, 5u, 7u, 9u, 33u, 100u}) {
    aligned_vector<double> ex(n), ey(n);
    std::vector<int32_t> cx(n), cy(n), mask(n);
    for (size_t i = 0; i < n; ++i) {
      ex[i] = rng.uniform(0.0, 10.0);
      ey[i] = rng.uniform(0.0, 10.0);
      cx[i] = static_cast<int>(std::floor((ex[i] - ox) / res));
      cy[i] = static_cast<int>(std::floor((ey[i] - oy) / res));
      // Any non-empty subset of the 9-neighborhood.
      mask[i] = 1 + static_cast<int>(rng.uniform(0.0, 510.0));
    }
    simd::ScoreHitsArgs args;
    args.n = n;
    args.end_x = ex.data();
    args.end_y = ey.data();
    args.cell_x = cx.data();
    args.cell_y = cy.data();
    args.neighbor_mask = mask.data();
    args.origin_x = ox;
    args.origin_y = oy;
    args.resolution = res;
    args.two_sigma2 = two_sigma2;

    double expected = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double min_d2 = std::numeric_limits<double>::infinity();
      for (int k = 0; k < 9; ++k) {
        if ((mask[i] & (1 << k)) == 0) continue;
        // Occupied cell center, as LikelihoodField::min_obstacle_d2 computes.
        const double cwx = ox + (cx[i] + (k % 3 - 1) + 0.5) * res;
        const double cwy = oy + (cy[i] + (k / 3 - 1) + 0.5) * res;
        const double dx = cwx - ex[i], dy = cwy - ey[i];
        min_d2 = std::min(min_d2, dx * dx + dy * dy);
      }
      expected += std::exp(-min_d2 / two_sigma2);
    }
    for (simd::Level level : levels) {
      const double got = simd::score_hits(level, args);
      EXPECT_NEAR(got, expected, std::abs(expected) * 1e-12 + 1e-12)
          << simd::level_name(level) << " n=" << n;
    }
  }
}

// Full-pipeline equivalence: ScanMatcher::score under each forced level
// against the forced-scalar reference, on randomized maps, poses, and scans
// truncated to awkward lengths so the padded tail lanes get exercised.
TEST(SimdKernels, ScoreEquivalentAcrossLevelsOnRandomizedScans) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector unit";

  Rng rng(31);
  auto world = std::make_unique<sim::World>(10.0, 10.0);
  world->add_outer_walls(0.2);
  for (int i = 0; i < 4; ++i) {
    const double x = rng.uniform(1.5, 7.5), y = rng.uniform(1.5, 7.5);
    world->add_box({x, y}, {x + rng.uniform(0.4, 1.2), y + rng.uniform(0.4, 1.2)});
  }
  sim::Lidar lidar(sim::LidarConfig{}, 5);
  // Poses inside a box see no in-range beams; reject them like the perception
  // test fixtures do.
  const auto random_free_pose = [&]() -> Pose2D {
    while (true) {
      const Pose2D p{rng.uniform(0.6, 9.4), rng.uniform(0.6, 9.4),
                     rng.uniform(-3.1, 3.1)};
      if (!world->grid().at(world->frame().world_to_cell(p.position()))) return p;
    }
  };
  perception::OccupancyGridConfig gcfg;
  gcfg.resolution = 0.1;
  perception::OccupancyGrid map(Point2D{0, 0}, 10.0, 10.0, gcfg);
  for (int i = 0; i < 6; ++i) {
    const Pose2D p = random_free_pose();
    map.integrate_scan(p, lidar.scan(*world, p, 0.0));
  }
  perception::LikelihoodField field;
  field.sync(map);
  perception::ScanMatcher matcher;

  for (int trial = 0; trial < 20; ++trial) {
    const Pose2D pose = random_free_pose();
    const msg::LaserScan scan = lidar.scan(*world, pose, 0.0);
    perception::PrecomputedScan pre = perception::precompute_scan(
        scan, matcher.config().beam_stride, map.frame().resolution);
    ASSERT_FALSE(pre.empty());
    // Truncate to a rotating awkward length (tail lanes, sub-lane counts).
    const size_t lens[] = {1, 2, 3, 5, 7, 9, 33, pre.size()};
    const size_t n = std::min(pre.size(), lens[trial % 8]);
    pre.end_x.resize(n);
    pre.end_y.resize(n);
    pre.before_x.resize(n);
    pre.before_y.resize(n);

    double reference = 0.0;
    {
      const ForcedLevel pin(simd::Level::kScalar);
      reference = matcher.score(field, pose, pre, nullptr);
    }
    for (simd::Level level : levels) {
      const ForcedLevel pin(level);
      const double got = matcher.score(field, pose, pre, nullptr);
      EXPECT_NEAR(got, reference, std::abs(reference) * 1e-12 + 1e-12)
          << simd::level_name(level) << " trial=" << trial << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace lgv
