// Hill-climbing scan matcher — the scanMatch kernel that dominates SLAM time
// (98% per §V). Scores a candidate pose by projecting (subsampled) beam
// endpoints into a map and rewarding endpoints that land on occupied cells
// with free space in front of them; refines the pose by greedy coordinate
// ascent over (x, y, θ) perturbations.
//
// GMapping scores through the likelihood field: beam endpoints are
// precomputed once per scan in the sensor frame, each candidate pose
// transforms them with two FMAs per coordinate, and a single LikelihoodField
// lookup replaces the 3×3 occupancy probe. The brute-force scorer (per-beam
// trig + neighborhood probe) is kept as the semantic reference the
// equivalence tests and benches compare the field against; no mission runs
// it.
//
// score() reports the number of beam evaluations it performed. Callers charge
// calib::kScanMatchCyclesPerBeamEval per evaluation whichever scorer ran: the
// algorithm fixes the work, not the implementation (docs/timing-model.md).
#pragma once

#include <vector>

#include "common/geometry.h"
#include "common/simd.h"
#include "common/soa.h"
#include "msg/messages.h"
#include "perception/likelihood_field.h"
#include "perception/occupancy_grid.h"

namespace lgv::perception {

struct ScanMatcherConfig {
  int beam_stride = 4;          ///< evaluate every k-th beam
  double search_step_xy = 0.05; ///< initial translation step (m)
  double search_step_theta = 0.025;  ///< initial rotation step (rad)
  int refinement_iterations = 3;     ///< halvings of the step size
  double sigma = 0.12;          ///< endpoint score kernel width (m)
};

struct MatchResult {
  Pose2D pose;
  double score = 0.0;
  size_t beam_evaluations = 0;  ///< work units performed
};

/// Pose-independent per-scan precomputation: the (r·cosθᵢ, r·sinθᵢ) beam
/// endpoints and the free-space check points one map cell short of them, in
/// the sensor frame. Computed once per scan and shared by every candidate
/// pose the hill climb evaluates (~6 candidates × iterations previously
/// recomputed the trig per beam each).
///
/// Structure-of-arrays: the score loop streams each coordinate contiguously
/// (and the SIMD path loads them as whole vector lanes), which an
/// array-of-Beam layout would interleave. Arrays are 32-byte aligned and all
/// the same length; in-range beams only, already strided.
struct PrecomputedScan {
  aligned_vector<double> end_x;     ///< beam endpoint, sensor frame
  aligned_vector<double> end_y;
  aligned_vector<double> before_x;  ///< endpoint pulled back one map resolution
  aligned_vector<double> before_y;

  size_t size() const { return end_x.size(); }
  bool empty() const { return end_x.empty(); }
};

/// Build the precomputation for `scan`, keeping every stride-th in-range beam
/// (the same beams the scorers evaluate). `resolution` is the map cell size
/// used for the free-space-before-endpoint check points.
PrecomputedScan precompute_scan(const msg::LaserScan& scan, int stride,
                                double resolution);

class ScanMatcher {
 public:
  explicit ScanMatcher(ScanMatcherConfig config = {}) : config_(config) {}

  const ScanMatcherConfig& config() const { return config_; }

  /// Brute-force reference score of `pose` against `map`; higher is better.
  /// Increments *evaluations by the number of beams scored.
  double score(const OccupancyGrid& map, const Pose2D& pose, const msg::LaserScan& scan,
               size_t* evaluations) const;

  /// Likelihood-field score: identical semantics to the reference scorer —
  /// same occupied sets and branch decisions, values equal up to the
  /// floating-point rounding of precomposed endpoints and squared distances.
  double score(const LikelihoodField& field, const Pose2D& pose,
               const PrecomputedScan& pre, size_t* evaluations) const;

  /// Greedy local refinement around `initial` (Fig. 6's per-particle
  /// scanMatch), brute-force reference path. Deterministic; thread-safe
  /// (const).
  MatchResult match(const OccupancyGrid& map, const Pose2D& initial,
                    const msg::LaserScan& scan) const;

  /// Same refinement on the likelihood-field fast path. `field` must be
  /// synced with the map the caller is matching against.
  MatchResult match(const LikelihoodField& field, const Pose2D& initial,
                    const msg::LaserScan& scan) const;

  /// Fast-path refinement with a caller-provided precomputation, so a batch
  /// caller (GMapping matches P particles against the same scan) precomputes
  /// once instead of per particle.
  MatchResult match(const LikelihoodField& field, const Pose2D& initial,
                    const PrecomputedScan& pre) const;

 private:
  template <typename ScoreFn>
  MatchResult hill_climb(const Pose2D& initial, ScoreFn&& score_fn) const;

  /// Arena-staged SIMD pipeline behind score(field, …); level is a vector
  /// level. See docs/kernels.md.
  double score_simd(simd::Level level, const LikelihoodField& field,
                    const Pose2D& pose, const PrecomputedScan& pre) const;

  ScanMatcherConfig config_;
};

}  // namespace lgv::perception
