// MissionRunner: the end-to-end experiment driver behind Figs. 11–14. It
// wires the Fig. 2 pipeline (lidar → localization/SLAM, costmap generation →
// path tracking → velocity multiplexer, plus path planning and exploration)
// onto an OffloadRuntime deployment and steps the whole system — robot
// physics, wireless network, node execution with platform-modeled timing,
// per-component energy, Algorithm 1 placement and Algorithm 2 adaptation —
// in virtual time until the mission completes.
//
// Execution is asynchronous dataflow at a fixed tick: a node starts when its
// input arrives and it is idle, runs for the cost-model execution time of its
// current host, and its outputs publish when it finishes. Commands crossing
// hosts ride the emulated UDP links and can be lost; a starved Velocity
// Multiplexer times out to a safety stop, which is exactly how poor network
// quality strands an offloaded LGV (§VI).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "control/recovery.h"
#include "control/safety_controller.h"
#include "control/trajectory_rollout.h"
#include "control/velocity_mux.h"
#include "core/offload_runtime.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "perception/visual_odometry.h"
#include "planning/frontier.h"
#include "planning/global_planner.h"
#include "sim/lidar.h"
#include "sim/robot.h"
#include "sim/scenario.h"

namespace lgv::core {

/// Which Localization node implementation the mission runs (§IX: the paper's
/// strategies transfer to vision-based LGVs; the vision backend adds the
/// localization-failure speed constraint).
enum class LocalizationBackend { kLaser, kVision };

struct MissionConfig {
  double scan_period = 0.2;    ///< 5 Hz LDS
  double timeout = 1500.0;     ///< give up after this much virtual time
  int rollout_samples = 2000;  ///< Fig. 10's default operating point
  int slam_particles = 30;
  double explore_done_grace = 8.0;  ///< min mission time before "explored"
  /// Fleet seed. A single vehicle uses it directly; in a fleet, each
  /// vehicle's subsystem seeds derive from (seed, vehicle_index) via
  /// splitmix64 (see effective_seed()) so vehicles never share RNG streams —
  /// N copies of the same MissionConfig with distinct indices are N
  /// *different* missions, not N replays of one.
  uint64_t seed = 0x5eed;
  /// This vehicle's index in the fleet; -1 = standalone (seed used as-is).
  /// Also stamps the wire session id and the telemetry vehicle_id.
  int vehicle_index = -1;
  /// Shared fleet worker (see FleetAttachment); nullptr = the runtime owns
  /// its remote compute as before. Must outlive the runner.
  WorkerPool* worker_pool = nullptr;
  /// Standby pool for failover (PR 9): on primary loss the runtime ships a
  /// crash-consistent state snapshot and re-admits here. Must outlive the
  /// runner; nullptr = no failover target.
  WorkerPool* standby_pool = nullptr;
  /// The seed the vehicle's subsystems actually derive from.
  uint64_t effective_seed() const {
    return vehicle_index < 0
               ? seed
               : vehicle_seed(seed, static_cast<uint32_t>(vehicle_index));
  }
  /// Wireless environment (WAP position comes from the scenario).
  net::ChannelConfig channel;
  /// Battery capacity (Wh); the mission fails if it empties (Turtlebot3
  /// ships a 19.98 Wh pack — §I).
  double battery_wh = 19.98;
  /// §VIII-E: let the Controller shed cloud parallelism when the vehicle
  /// cannot reach the velocity cap (saves cloud cost; off by default so the
  /// headline figures run at fixed thread counts).
  bool adaptive_parallelism = false;
  /// Localization node implementation (navigation workload only; exploration
  /// always runs laser SLAM).
  LocalizationBackend localization = LocalizationBackend::kLaser;
  /// Telemetry (metrics + virtual-time trace). Enabled by default; set
  /// `telemetry.enabled = false` for overhead-free runs.
  telemetry::TelemetryConfig telemetry;
  /// Scripted fault schedule (docs/faults.md); empty = no injected faults.
  /// Channel events overlay the wireless emulation each tick; worker events
  /// feed the lease protocol.
  sim::FaultSchedule faults;
  /// Remote-execution leases + local fallback (the tentpole's graceful
  /// degradation). Disable to measure how a deployment fares against the
  /// same fault schedule with no fallback story (the bench's "adaptive"
  /// vs. "adaptive+fallback" comparison).
  bool lease_fallback = true;
};

struct VelocitySample {
  double t = 0.0;
  double cap = 0.0;   ///< Eq. 2c maximum velocity at t
  double real = 0.0;  ///< actual base speed at t
};

struct NetworkSample {
  double t = 0.0;
  double latency_ms = 0.0;    ///< latest measured RTT
  double bandwidth_hz = 0.0;  ///< Algorithm 2's r_t
  double direction = 0.0;     ///< Algorithm 2's d_t
  bool remote = false;        ///< VDP placement at t
};

struct MissionReport {
  std::string deployment;
  std::string workload;
  bool success = false;
  double completion_time = 0.0;  ///< T of Eq. 2a
  double standby_time = 0.0;     ///< Ts (vehicle halted while mission active)
  double distance_traveled = 0.0;
  double average_velocity = 0.0;
  double peak_velocity_cap = 0.0;
  sim::EnergyBreakdown energy;   ///< Fig. 13's stacked components
  SwitcherStats network;
  uint64_t placement_switches = 0;  ///< Algorithm 2 activations
  uint64_t fallbacks = 0;           ///< lease expirations → local re-executions
  uint64_t busy_fallbacks = 0;      ///< pool refusals degraded to local compute
  uint64_t pool_failovers = 0;      ///< committed pool switches (PR 9)
  uint64_t faults_injected = 0;     ///< scripted fault events that activated
  double explored_area_m2 = 0.0;    ///< exploration workload only
  double battery_state_of_charge = 1.0;  ///< remaining fraction at mission end
  int min_active_threads = 1;  ///< lowest worker count (§VIII-E shedding)
  double cloud_core_seconds = 0.0;  ///< reserved remote core-seconds (cost proxy)
  std::vector<VelocitySample> velocity_trace;
  std::vector<NetworkSample> network_trace;
  /// Per-node cycle totals and invocation counts (Table II's raw data).
  std::map<std::string, double> node_cycles;
  std::map<std::string, size_t> node_invocations;
  /// End-of-mission telemetry: every metric series (empty when telemetry is
  /// disabled) and the recorded trace-event count. The full trace lives in
  /// `MissionRunner::runtime().telemetry()->tracer()`.
  telemetry::MetricsSnapshot metrics;
  uint64_t trace_events = 0;
};

/// Live snapshot passed to the tick observer (debugging / visualization).
struct TickState {
  double t = 0.0;
  Pose2D robot_pose;
  Pose2D estimated_pose;
  Velocity2D command;
  double velocity_cap = 0.0;
  size_t path_waypoints = 0;
  std::optional<Pose2D> goal;
  bool collided = false;
  const char* mux_source = "";
};

class MissionRunner {
 public:
  MissionRunner(sim::Scenario scenario, DeploymentPlan plan, MissionConfig config = {});

  /// Run the mission to completion (or timeout) and return the report.
  /// Equivalent to start(); while (step()) {}; finalize().
  MissionReport run();

  /// Steppable form, so a fleet harness can drive N runners in lockstep
  /// against one shared WorkerPool: start() applies the initial placement,
  /// each step() executes one tick and advances the clock, returning false
  /// once the mission is done (success, battery, or timeout), and finalize()
  /// closes out and returns the report.
  void start();
  bool step();
  MissionReport finalize();

  /// Invoked once per simulation tick with the live state. Install before
  /// run(); used by examples for visualization and by debugging tools.
  void set_tick_observer(std::function<void(const TickState&)> observer) {
    observer_ = std::move(observer);
  }

  OffloadRuntime& runtime() { return runtime_; }

 private:
  struct DeferredAction {
    double due;
    telemetry::TraceContext ctx;  ///< trace context captured at defer() time
    std::function<void()> fn;
  };

  void setup_graph();
  void on_scan_tick(double now);
  void run_localization(double now);
  void run_costmap(double now);
  void run_tracking(double now);
  void run_planning(double now, bool force);
  void run_exploration(double now);
  void run_adjustment(double now);
  /// Serialized size of the migratable state right now (costmap snapshot +
  /// SLAM/AMCL filter state) — Algorithm 2's migrations and the failover
  /// snapshot path both price their transfer off this. `used_delta` (may be
  /// null) reports whether the SLAM codec managed a delta encoding.
  double serialized_state_bytes(double now, bool* used_delta);
  void integrate_energy(double now, double prev_speed);
  void defer(double due, std::function<void()> fn);
  void pump(double now);
  double current_velocity_cap() const;
  telemetry::Tracer* tracer();
  telemetry::TraceContext capture_ctx();

  sim::Scenario scenario_;
  MissionConfig config_;
  OffloadRuntime runtime_;
  sim::FaultInjector fault_injector_;

  // physical world
  sim::DiffDriveRobot robot_;
  sim::Lidar lidar_;
  sim::Battery battery_;
  double battery_drained_j_ = 0.0;

  // pipeline algorithm state
  perception::OccupancyGrid known_map_;       ///< navigation ground-truth map
  std::optional<perception::Amcl> amcl_;      ///< with-a-map laser localization
  std::optional<perception::Gmapping> slam_;  ///< without-a-map localization
  std::optional<perception::Camera> camera_;  ///< vision-based LGV (§IX)
  std::optional<perception::VisualOdometry> vo_;
  std::optional<perception::VisualFrame> frame_for_loc_;
  Pose2D vo_last_odom_;
  perception::Costmap2D costmap_;
  planning::GlobalPlanner planner_;
  planning::FrontierExplorer frontier_;
  control::TrajectoryRollout rollout_;
  control::VelocityMultiplexer mux_;
  control::SafetyController safety_;
  control::RecoveryBehavior recovery_;

  // dataflow state
  std::optional<msg::LaserScan> scan_for_loc_;
  std::optional<msg::LaserScan> scan_for_cg_;
  // Trace contexts riding alongside the data handoffs above, so a node that
  // consumes a buffered input parents its span under the producing event even
  // when ticks elapse in between.
  telemetry::TraceContext scan_loc_ctx_;
  telemetry::TraceContext scan_cg_ctx_;
  telemetry::TraceContext frame_ctx_;
  telemetry::TraceContext costmap_ctx_;
  msg::Odometry latest_odom_;
  Pose2D pose_estimate_;
  double pose_stamp_ = 0.0;
  /// Localization publishes the map→odom correction; composing it with fresh
  /// odometry gives an up-to-date pose even while SLAM/AMCL lag (standard
  /// ROS TF practice). The correction itself can be stale/lossy — odometry
  /// drifts slowly, so that is safe.
  Pose2D map_to_odom_;
  Pose2D current_pose() const { return map_to_odom_.compose(latest_odom_.pose); }
  double costmap_stamp_ = -1.0;
  double tracked_costmap_stamp_ = -1.0;
  msg::PathMsg path_;
  std::optional<Pose2D> goal_;
  double loc_busy_until_ = 0.0;
  double cg_busy_until_ = 0.0;
  double pt_busy_until_ = 0.0;
  double pp_busy_until_ = 0.0;
  std::vector<DeferredAction> deferred_;

  // publishers
  mw::Publisher<msg::LaserScan> scan_pub_;
  mw::Publisher<msg::Odometry> odom_pub_;
  mw::Publisher<msg::PoseStamped> pose_pub_;
  mw::Publisher<msg::PoseStamped> tf_pub_;
  mw::Publisher<msg::TwistMsg> cmd_pub_;

  // bookkeeping
  MissionReport report_;
  uint64_t scan_seq_ = 0;
  double last_scan_time_ = -1e9;
  double last_replan_ = -1e9;
  double last_adjust_ = -1e9;
  double last_trace_ = -1e9;
  double last_progress_time_ = 0.0;
  double best_goal_distance_ = 1e18;
  double frozen_until_ = 0.0;  ///< state-migration freeze (Algorithm 2)
  /// alg_decisions_total{algorithm=2}, registered at the first evaluation.
  telemetry::Counter* alg2_decisions_ = nullptr;
  bool explored_ = false;
  bool done_ = false;  ///< set by step() when the mission ends
  /// Frontier goals that made no progress for a while — treated as
  /// unreachable (e.g. slivers inside inflation) and skipped.
  std::vector<Point2D> frontier_blacklist_;
  double explore_goal_set_time_ = 0.0;
  double explore_best_dist_ = 1e18;
  std::function<void(const TickState&)> observer_;
};

}  // namespace lgv::core
