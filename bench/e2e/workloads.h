// The four bench_e2e workloads and the passes that run them (README.md).
//
// A run is a sequence of missions k = 0, 1, 2, ... with mission k seeded
// vehicle_seed(run_seed, k). Every run covers a fixed prefix of that sequence
// (the first `prefix_missions` missions, or for the fleet the first
// `fleet_prefix_s` virtual seconds); the timed pass then keeps going until
// its wall-clock budget is spent. Virtual-time results and the digest cover
// the prefix only, so they depend on the seed alone; host-time results cover
// everything the timed pass ran.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/mission_runner.h"
#include "spans.h"

namespace lgv::e2e {

/// Every real thread pool a workload builds has this many threads: virtual
/// results depend on the real thread count (README.md, known issue B), so it
/// is a constant rather than the machine's core count.
inline constexpr int kPoolThreads = 4;

inline constexpr double kTick = 0.02;  ///< MissionConfig::tick (s)

struct Workload {
  std::string name;
  bool fleet = false;
  bool exploration = false;
  int prefix_missions = 0;    ///< mission workloads
  /// Exploration missions are sorties cut at this many virtual seconds:
  /// explored to the end, most office missions run 400-850 s and some never
  /// finish (README.md, known issue C).
  double sortie_s = 0;
  int fleet_size = 0;         ///< fleet only
  double fleet_prefix_s = 0;  ///< fleet only: virtual horizon of the prefix
  int rollout_samples = 2000;
  int slam_particles = 30;
};

const std::vector<std::string>& workload_names();
/// `smoke`: 2 missions, or 8 vehicles for 10 virtual seconds.
std::optional<Workload> find_workload(const std::string& name, bool smoke);

/// The scenario mission runners of `w` drive (`vehicle` is the fleet index).
sim::Scenario make_scenario(const Workload& w, int vehicle);
core::DeploymentPlan make_plan(const Workload& w);

enum class Pass {
  kTimed,         ///< host-time measurement: no spans, no allocation counting
  kTraced,        ///< repeats the prefix recording spans, ticks and allocations
  kTelemetryOff,  ///< repeats the prefix with telemetry.enabled = false
};

enum class Cause : uint8_t {
  kNone,
  kTimeout,
  kBattery,
  kExploredArea,   ///< a sortie mapped less than kMinSortieM2
  kPayloadCopies,  ///< mw_payload_copies_total != 0
  kSignal,         ///< the child running the mission was killed
  kChildError,     ///< the child exited non-zero (an exception)
};
const char* cause_name(Cause cause);

/// 240 s sorties map 90-235 m² of the office, and 16-18 m² in the rare
/// sortie whose vehicle never leaves the start (known issue C). A smaller
/// SLAM map means mapping itself broke.
inline constexpr double kMinSortieM2 = 10.0;

/// One mission, as the child that ran it reports it. The fleet also reports
/// the missions still running when the episode stops (finished == false):
/// they count towards host-time totals but were never attempted to the end.
struct MissionRecord {
  uint32_t k = 0;
  int32_t vehicle = -1;
  bool finished = true;
  bool in_prefix = false;  ///< finished within the prefix
  Cause cause = Cause::kNone;
  int32_t signal = 0;
  // ---- virtual clock
  double mission_s = 0;
  double energy_j = 0;
  double standby_s = 0;
  double explored_m2 = 0;
  uint64_t fallbacks = 0;       ///< lease + busy
  uint64_t busy_fallbacks = 0;
  double uplink_bytes = 0;
  double downlink_bytes = 0;
  uint64_t frames = 0;          ///< uplink + downlink messages
  uint64_t frames_rejected = 0;
  uint64_t migrations = 0;
  uint64_t migrations_aborted = 0;
  double migration_bytes = 0;
  double delta_hit_ratio = -1;  ///< last SLAM encode; -1 = no migration
  uint64_t placement_solves = 0;
  uint64_t placement_delta_evals = 0;
  uint64_t payload_copies = 0;
  uint64_t localization_calls = 0;
  uint64_t costmap_calls = 0;
  uint64_t tracking_calls = 0;
  uint64_t planning_calls = 0;
  uint64_t exploration_calls = 0;
  // ---- host clock (the private pool's own wall-clock telemetry included)
  double pool_busy_us = 0;
  double pool_wait_p50_us = 0;
  double pool_wait_p99_us = 0;
  double setup_s = 0;   ///< runner construction + start()
  double step_s = 0;    ///< Σ step() wall time
  uint64_t steps = 0;
  uint64_t scan_ticks = 0;
  uint64_t allocs = 0;  ///< during step(); traced pass only
  uint64_t alloc_bytes = 0;

  bool failed() const { return cause != Cause::kNone; }
};

/// TickState at a scan tick, kept for the layer replay.
struct TickSample {
  uint32_t k = 0;
  int32_t vehicle = -1;
  double t = 0;
  Pose2D robot;
  Pose2D estimate;
  Velocity2D command;
  double velocity_cap = 0;
  bool has_goal = false;
  Pose2D goal;
};

/// Fleet-wide numbers (fleet64 only).
struct FleetStats {
  uint64_t rounds = 0;
  uint64_t pool_requests = 0;
  uint64_t pool_busy_rejects = 0;
  uint64_t pool_batched = 0;
  uint64_t pool_max_session_depth = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_busy_fallbacks = 0;     ///< WorkerPool::busy_fallbacks()
  uint64_t vehicle_busy_fallbacks = 0;  ///< Σ over every runner of the episode
  double pool_busy_us = 0;
  double pool_wait_p50_us = 0;
  double pool_wait_p99_us = 0;
  // Prefix totals over every vehicle, finished or not.
  uint64_t prefix_fallbacks = 0;
  double prefix_vehicle_s = 0;
};

/// A child process killed by a signal (the fleet episode is mission 0).
struct Crash {
  uint32_t k = 0;
  int signal = 0;
};

struct PassResult {
  std::vector<MissionRecord> missions;  ///< in finishing order; unfinished last
  std::vector<double> scan_tick_ms;     ///< timed pass, in the order they ran
  /// Virtual seconds per wall second of step() in each full sim_speed
  /// window: 10 virtual seconds of one mission, or 1 of the whole fleet.
  std::vector<double> window_speed;
  /// host_probe_s() after every window: how fast the host ran meanwhile.
  std::vector<double> probe_s;
  std::vector<TickSample> ticks;        ///< traced pass
  std::vector<Span> spans;              ///< traced pass
  FleetStats fleet;
  double wall_s = 0;                 ///< the whole pass, forks included
  std::vector<double> child_rss_mb;  ///< peak RSS of each child
  double cpu_s = 0;                  ///< Σ children
  std::vector<Crash> crashes;        ///< every crashed attempt, retried or not
};

/// Run one pass. The timed pass keeps starting missions (fleet: rounds) until
/// `seconds` of wall time have passed; the others run the prefix only.
PassResult run_pass(const Workload& w, uint64_t seed, Pass pass, double seconds);

/// Hash of every prefix mission's virtual results (completion, energy,
/// standby, fallbacks, bytes, outcome), in order.
uint64_t virtual_digest(const PassResult& r);

}  // namespace lgv::e2e
