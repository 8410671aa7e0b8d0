#include "perception/scan_matcher.h"

#include <array>
#include <cmath>

#include "common/arena.h"
#include "common/simd_kernels.h"

namespace lgv::perception {

PrecomputedScan precompute_scan(const msg::LaserScan& scan, int stride,
                                double resolution) {
  PrecomputedScan pre;
  const size_t cap = scan.ranges.size() / static_cast<size_t>(stride) + 1;
  pre.end_x.reserve(cap);
  pre.end_y.reserve(cap);
  pre.before_x.reserve(cap);
  pre.before_y.reserve(cap);
  for (size_t i = 0; i < scan.ranges.size(); i += static_cast<size_t>(stride)) {
    const double r = static_cast<double>(scan.ranges[i]);
    if (r > scan.range_max || r < scan.range_min) continue;
    const double angle = scan.angle_of(i);
    const double cos_a = std::cos(angle), sin_a = std::sin(angle);
    pre.end_x.push_back(cos_a * r);
    pre.end_y.push_back(sin_a * r);
    pre.before_x.push_back(cos_a * (r - resolution));
    pre.before_y.push_back(sin_a * (r - resolution));
  }
  return pre;
}

double ScanMatcher::score(const OccupancyGrid& map, const Pose2D& pose,
                          const msg::LaserScan& scan, size_t* evaluations) const {
  double total = 0.0;
  size_t evals = 0;
  const double res = map.frame().resolution;
  for (size_t i = 0; i < scan.ranges.size(); i += static_cast<size_t>(config_.beam_stride)) {
    const double r = static_cast<double>(scan.ranges[i]);
    if (r > scan.range_max || r < scan.range_min) continue;
    ++evals;
    const double angle = pose.theta + scan.angle_of(i);
    const double cos_a = std::cos(angle), sin_a = std::sin(angle);
    const Point2D end{pose.x + cos_a * r, pose.y + sin_a * r};
    // A valid hit has free space just before the endpoint.
    const Point2D before{pose.x + cos_a * (r - res), pose.y + sin_a * (r - res)};
    const CellIndex end_cell = map.frame().world_to_cell(end);
    const CellIndex before_cell = map.frame().world_to_cell(before);

    // Search the 3×3 neighborhood of the endpoint for the best occupied cell.
    double best = -1.0;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const CellIndex c{end_cell.x + dx, end_cell.y + dy};
        if (!map.is_occupied(c)) continue;
        const Point2D cw = map.frame().cell_to_world(c);
        const double d = distance(cw, end);
        const double s = std::exp(-d * d / (2.0 * config_.sigma * config_.sigma));
        best = std::max(best, s);
      }
    }
    if (best > 0.0 && !map.is_occupied(before_cell)) {
      total += best;
    } else if (map.is_unknown(end_cell)) {
      // Unknown terrain is neutral-slightly-positive so exploration scans
      // don't get repelled from frontier poses.
      total += 0.05;
    }
  }
  if (evaluations != nullptr) *evaluations += evals;
  return total;
}

double ScanMatcher::score(const LikelihoodField& field, const Pose2D& pose,
                          const PrecomputedScan& pre, size_t* evaluations) const {
  if (evaluations != nullptr) *evaluations += pre.size();
  const simd::Level level = simd::active_level();
  if (level != simd::Level::kScalar && !pre.empty()) {
    return score_simd(level, field, pose, pre);
  }

  // Scalar reference loop — the semantic ground truth the SIMD pipeline is
  // tested against, and the path non-x86 / forced-scalar builds run.
  double total = 0.0;
  const double cos_t = std::cos(pose.theta), sin_t = std::sin(pose.theta);
  const GridFrame& frame = field.frame();
  for (size_t i = 0; i < pre.size(); ++i) {
    const Point2D end{pose.x + cos_t * pre.end_x[i] - sin_t * pre.end_y[i],
                      pose.y + sin_t * pre.end_x[i] + cos_t * pre.end_y[i]};
    const CellIndex end_cell = frame.world_to_cell(end);
    const uint16_t e = field.entry(end_cell);
    if ((e & LikelihoodField::kNeighborMask) != 0) {
      const Point2D before{
          pose.x + cos_t * pre.before_x[i] - sin_t * pre.before_y[i],
          pose.y + sin_t * pre.before_x[i] + cos_t * pre.before_y[i]};
      if (!field.occupied(frame.world_to_cell(before))) {
        // max over neighbors of exp(−d²/2σ²) == exp of the min d² (exp is
        // monotone), which the field recovers from its occupancy mask.
        const double d2 = field.min_obstacle_d2(end_cell, end);
        total += std::exp(-d2 / (2.0 * config_.sigma * config_.sigma));
        continue;
      }
    }
    if ((e & LikelihoodField::kUnknownBit) != 0) total += 0.05;
  }
  return total;
}

double ScanMatcher::score_simd(simd::Level level, const LikelihoodField& field,
                               const Pose2D& pose,
                               const PrecomputedScan& pre) const {
  const size_t n = pre.size();
  const GridFrame& frame = field.frame();
  Arena& arena = thread_scratch();
  const Arena::Scope scope(arena);

  // Stage A: transform + project every beam (vector).
  double* wx = arena.alloc_array<double>(n);
  double* wy = arena.alloc_array<double>(n);
  int32_t* ecx = arena.alloc_array<int32_t>(n);
  int32_t* ecy = arena.alloc_array<int32_t>(n);
  int32_t* bcx = arena.alloc_array<int32_t>(n);
  int32_t* bcy = arena.alloc_array<int32_t>(n);
  simd::TransformProjectArgs tp;
  tp.n = n;
  tp.end_x = pre.end_x.data();
  tp.end_y = pre.end_y.data();
  tp.before_x = pre.before_x.data();
  tp.before_y = pre.before_y.data();
  tp.pose_x = pose.x;
  tp.pose_y = pose.y;
  tp.cos_t = std::cos(pose.theta);
  tp.sin_t = std::sin(pose.theta);
  tp.origin_x = frame.origin.x;
  tp.origin_y = frame.origin.y;
  tp.resolution = frame.resolution;
  tp.out_end_x = wx;
  tp.out_end_y = wy;
  tp.out_end_cx = ecx;
  tp.out_end_cy = ecy;
  tp.out_before_cx = bcx;
  tp.out_before_cy = bcy;
  simd::transform_project(level, tp);

  // Stage B: field-entry lookups, hit/unknown classification, hit
  // compaction (scalar — gathers and branches).
  double* hx = arena.alloc_array<double>(n);
  double* hy = arena.alloc_array<double>(n);
  int32_t* hcx = arena.alloc_array<int32_t>(n);
  int32_t* hcy = arena.alloc_array<int32_t>(n);
  int32_t* hmask = arena.alloc_array<int32_t>(n);
  size_t hits = 0;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const uint16_t e = field.entry({ecx[i], ecy[i]});
    if ((e & LikelihoodField::kNeighborMask) != 0) {
      if (!field.occupied({bcx[i], bcy[i]})) {
        hx[hits] = wx[i];
        hy[hits] = wy[i];
        hcx[hits] = ecx[i];
        hcy[hits] = ecy[i];
        hmask[hits] = e & LikelihoodField::kNeighborMask;
        ++hits;
        continue;
      }
    }
    if ((e & LikelihoodField::kUnknownBit) != 0) total += 0.05;
  }

  // Stage C: min neighbor d² + exp over the compacted hits (vector).
  simd::ScoreHitsArgs sh;
  sh.n = hits;
  sh.end_x = hx;
  sh.end_y = hy;
  sh.cell_x = hcx;
  sh.cell_y = hcy;
  sh.neighbor_mask = hmask;
  sh.origin_x = frame.origin.x;
  sh.origin_y = frame.origin.y;
  sh.resolution = frame.resolution;
  sh.two_sigma2 = 2.0 * config_.sigma * config_.sigma;
  if (hits > 0) total += simd::score_hits(level, sh);
  return total;
}

template <typename ScoreFn>
MatchResult ScanMatcher::hill_climb(const Pose2D& initial, ScoreFn&& score_fn) const {
  MatchResult result;
  result.pose = initial;
  result.score = score_fn(initial, &result.beam_evaluations);

  double step_xy = config_.search_step_xy;
  double step_th = config_.search_step_theta;
  for (int iter = 0; iter < config_.refinement_iterations; ++iter) {
    bool improved = true;
    while (improved) {
      improved = false;
      const std::array<Pose2D, 6> candidates = {
          Pose2D{result.pose.x + step_xy, result.pose.y, result.pose.theta},
          Pose2D{result.pose.x - step_xy, result.pose.y, result.pose.theta},
          Pose2D{result.pose.x, result.pose.y + step_xy, result.pose.theta},
          Pose2D{result.pose.x, result.pose.y - step_xy, result.pose.theta},
          Pose2D{result.pose.x, result.pose.y, result.pose.theta + step_th},
          Pose2D{result.pose.x, result.pose.y, result.pose.theta - step_th},
      };
      for (const Pose2D& cand : candidates) {
        const double s = score_fn(cand, &result.beam_evaluations);
        if (s > result.score + 1e-9) {
          result.score = s;
          result.pose = cand;
          improved = true;
        }
      }
    }
    step_xy *= 0.5;
    step_th *= 0.5;
  }
  return result;
}

MatchResult ScanMatcher::match(const OccupancyGrid& map, const Pose2D& initial,
                               const msg::LaserScan& scan) const {
  return hill_climb(initial, [&](const Pose2D& pose, size_t* evals) {
    return score(map, pose, scan, evals);
  });
}

MatchResult ScanMatcher::match(const LikelihoodField& field, const Pose2D& initial,
                               const msg::LaserScan& scan) const {
  return match(field, initial,
               precompute_scan(scan, config_.beam_stride, field.frame().resolution));
}

MatchResult ScanMatcher::match(const LikelihoodField& field, const Pose2D& initial,
                               const PrecomputedScan& pre) const {
  return hill_climb(initial, [&](const Pose2D& pose, size_t* evals) {
    return score(field, pose, pre, evals);
  });
}

}  // namespace lgv::perception
