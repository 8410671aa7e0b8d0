// Rao-Blackwellized particle filter SLAM in the style of GMapping [42], with
// the paper's Fig. 6 parallelization: each thread-pool worker runs scanMatch
// (and map integration) for its share of the M particles; the weight-tree
// update and resampling stay sequential on the main thread.
#pragma once

#include <map>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/soa.h"
#include "msg/messages.h"
#include "perception/likelihood_field.h"
#include "perception/occupancy_grid.h"
#include "perception/scan_matcher.h"
#include "platform/execution_context.h"

namespace lgv::perception {

struct GmappingConfig {
  int particles = 30;  ///< M — the accuracy/cost knob swept in Fig. 9
  double motion_noise_trans = 0.02;  ///< m of noise per meter traveled
  double motion_noise_rot = 0.02;    ///< rad of noise per rad turned
  double motion_noise_mix = 0.01;    ///< cross terms
  /// Resample when Neff / M drops below this (selective resampling [42]).
  double resample_threshold = 0.5;
  OccupancyGridConfig map;
  ScanMatcherConfig matcher;
};

/// Per-particle heavy state. The hot scalars (pose, weights) live in SoA
/// arrays on the filter (see Gmapping::poses()/weights()/log_weights()) so
/// the sequential weight/resample phases stream contiguous memory; Particle
/// keeps only the map and its derived caches.
struct Particle {
  OccupancyGrid map;
  /// Derived likelihood-field cache over `map`. Copied together with the map
  /// during resampling (so the pair stays consistent); never serialized —
  /// restore_state leaves it empty and the next scanMatch rebuilds it.
  LikelihoodField field;
  Rng rng{0};
};

/// Wire mode for serialize_state (each grid record is self-describing, so
/// the receiver needs no mode flag — this only selects what the sender emits).
enum class StateEncoding : uint8_t {
  kFullRaw,  ///< full snapshots, raw cell blocks (reference encoding)
  kFull,     ///< full snapshots, RLE cell blocks (cold-start wire default)
  kDelta,    ///< per-particle deltas against the last *committed* migration,
             ///< falling back to full RLE per grid when no base works
};

/// What the last serialize_state call actually emitted (per-grid decisions).
struct StateCodecStats {
  size_t grids_full = 0;
  size_t grids_delta = 0;
  size_t fallback_no_base = 0;   ///< no committed base for this lineage
  size_t fallback_overflow = 0;  ///< dirty region too large, delta skipped
  size_t fallback_larger = 0;    ///< delta encoded, but full RLE was smaller
  size_t bytes = 0;              ///< total encoded payload size

  double delta_hit_ratio() const {
    const size_t n = grids_full + grids_delta;
    return n == 0 ? 0.0 : static_cast<double>(grids_delta) / static_cast<double>(n);
  }
};

/// Statistics of one SLAM update (also the source of its work accounting).
struct SlamUpdateStats {
  size_t beam_evaluations = 0;  ///< scanMatch work across all particles
  size_t map_cells_updated = 0;
  bool resampled = false;
  double neff = 0.0;
};

class Gmapping {
 public:
  /// The map extent must be fixed up front (all particle maps share it).
  Gmapping(GmappingConfig config, Point2D map_origin, double width_m, double height_m,
           uint64_t seed = 0x51a);

  const GmappingConfig& config() const { return config_; }
  int particle_count() const { return static_cast<int>(particles_.size()); }

  /// Seed every particle at `start` and integrate nothing yet.
  void initialize(const Pose2D& start);

  /// One SLAM iteration: motion-sample each particle from the odometry
  /// delta, scanMatch-refine, weight, selectively resample, and integrate the
  /// scan into each surviving particle's map. The per-particle phase runs
  /// through ctx.parallel_kernel (Fig. 6); resampling is sequential.
  SlamUpdateStats process(const msg::Odometry& odom, const msg::LaserScan& scan,
                          platform::ExecutionContext& ctx);

  /// Highest-weight particle's pose — what Localization publishes.
  Pose2D best_pose() const;
  const OccupancyGrid& best_map() const;
  double neff() const { return neff_; }
  const std::vector<Particle>& particles() const { return particles_; }
  /// SoA hot state, index-aligned with particles().
  const PoseBlock& poses() const { return poses_; }
  const aligned_vector<double>& weights() const { return weights_; }
  const aligned_vector<double>& log_weights() const { return log_weights_; }

  /// Effective number of particles for a weight vector (exposed for tests).
  static double effective_sample_size(const std::vector<double>& weights);

  /// Full filter state (poses, weights, per-particle maps) — what the
  /// Switcher actually ships when Algorithm 2 migrates the SLAM node.
  /// The receiving side restores into an equivalently-configured instance.
  /// kDelta encodes each particle's map against the snapshot retained at the
  /// last committed migration where possible (see mark_migration_committed);
  /// restore_state decodes deltas against the receiver's own replicas of
  /// those states, so it only works when the previous committed transfer was
  /// restored into the same instance.
  std::vector<uint8_t> serialize_state(StateEncoding encoding = StateEncoding::kFull) const;
  void restore_state(const std::vector<uint8_t>& bytes);

  /// Record that the state most recently serialized made it across and was
  /// committed (Switcher::migrate_state's commit record): retain an O(1) CoW
  /// snapshot of every particle map and mark it as the delta base for future
  /// kDelta encodes. MUST NOT be called for an aborted transfer — the delta
  /// base only ever advances to states the receiver provably holds.
  void mark_migration_committed();
  /// Per-grid encode decisions of the most recent serialize_state call.
  const StateCodecStats& last_codec_stats() const { return last_codec_stats_; }

 private:
  void normalize_weights();
  void resample();
  size_t best_index() const;

  GmappingConfig config_;
  std::vector<Particle> particles_;
  /// Hot per-particle scalars, index-aligned with particles_.
  PoseBlock poses_;
  aligned_vector<double> log_weights_;
  aligned_vector<double> weights_;
  ScanMatcher matcher_;
  Rng rng_;
  bool have_last_odom_ = false;
  Pose2D last_odom_;
  double neff_ = 0.0;

  /// Snapshots of the particle maps as of the last committed migration,
  /// keyed by write_version (copies of one ancestor share the stamp, so
  /// duplicates collapse). CoW keeps these O(1) to take; each costs one
  /// deferred map copy the first time the live particle writes again.
  std::map<uint64_t, OccupancyGrid> committed_bases_;
  mutable StateCodecStats last_codec_stats_;
};

}  // namespace lgv::perception
