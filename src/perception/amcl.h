// Adaptive Monte Carlo Localization [41] against a known occupancy map — the
// Localization node of the with-a-map workload. KLD-style adaptation shrinks
// the particle set when the estimate is concentrated, which is why this node
// is so cheap in Table II (1% of cycles).
#pragma once

#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/soa.h"
#include "msg/messages.h"
#include "perception/likelihood_field.h"
#include "perception/occupancy_grid.h"
#include "perception/scan_matcher.h"
#include "platform/execution_context.h"

namespace lgv::perception {

struct AmclConfig {
  int min_particles = 80;
  int max_particles = 600;
  double motion_noise_trans = 0.03;
  double motion_noise_rot = 0.03;
  int beam_stride = 8;          ///< beams used by the measurement model
  double sigma_hit = 0.15;      ///< measurement model kernel (m)
  double z_hit = 0.85;          ///< weight of the hit component
  double z_rand = 0.15;         ///< uniform noise floor
  double resample_threshold = 0.5;
  /// KLD adaptation: target particle count ≈ kld_k × occupied pose bins.
  double kld_k = 6.0;
  double kld_bin_xy = 0.25;     ///< bin size (m)
  double kld_bin_theta = 0.25;  ///< bin size (rad)
};

struct AmclUpdateStats {
  size_t beam_evaluations = 0;
  bool resampled = false;
  int particle_count = 0;
  double neff = 0.0;
};

class Amcl {
 public:
  Amcl(AmclConfig config, const OccupancyGrid* map, uint64_t seed = 0xa3c1);

  /// Concentrate particles around a known start pose.
  void initialize(const Pose2D& start, double spread_xy = 0.1, double spread_theta = 0.1);
  /// Scatter particles uniformly over the map's free space (global loc.).
  void initialize_global(size_t count);

  AmclUpdateStats update(const msg::Odometry& odom, const msg::LaserScan& scan,
                         platform::ExecutionContext& ctx);

  /// Weighted mean pose of the filter.
  Pose2D estimate() const;
  int particle_count() const { return static_cast<int>(poses_.size()); }
  const AmclConfig& config() const { return config_; }
  /// SoA particle poses (poses()[i] materializes a Pose2D).
  const PoseBlock& poses() const { return poses_; }
  const aligned_vector<double>& weights() const { return weights_; }

  /// Filter state for Algorithm 2 migration: poses, weights, and the odometry
  /// anchor. The known map is deliberately NOT shipped — both hosts hold it
  /// (it is static input, not filter state), which is AMCL's degenerate form
  /// of delta migration: the payload is already proportional to change.
  std::vector<uint8_t> serialize_state() const;
  void restore_state(const std::vector<uint8_t>& bytes);

 private:
  /// Log-likelihood of the scan at `pose` through the map's LikelihoodField
  /// (endpoints precomputed once per scan, shared by every particle); the
  /// scalar reference loop.
  double measurement_weight(const Pose2D& pose, const PrecomputedScan& pre) const;
  /// measurement_weight() bit for bit, with the endpoints, cells and
  /// neighbour distances from the vector kernels; exp, log and the beam-order
  /// sum stay scalar.
  double measurement_weight_simd(simd::Level level, const Pose2D& pose,
                                 const PrecomputedScan& pre) const;
  /// log p(z | pose) of one beam whose endpoint lies d2 (squared) from the
  /// nearest occupied neighbour cell; distances are capped at 3σ.
  double beam_log_likelihood(double d2) const;
  void resample_adaptive();

  AmclConfig config_;
  const OccupancyGrid* map_;
  /// Likelihood-field cache over *map_. Synced lazily at each update — a
  /// no-op while the (typically static) localization map is unchanged.
  LikelihoodField field_;
  PoseBlock poses_;
  aligned_vector<double> weights_;
  Rng rng_;
  bool have_last_odom_ = false;
  Pose2D last_odom_;
};

}  // namespace lgv::perception
