#include "core/mission_runner.h"

#include <algorithm>
#include <cmath>

#include "platform/calibration.h"

namespace lgv::core {

namespace calib = platform::calib;
using platform::Host;

namespace {
constexpr double kTick = 0.02;           ///< simulation step (s)
constexpr double kGoalTolerance = 0.35;  ///< goal reached within this (m)
constexpr double kReplanPeriod = 2.0;    ///< global re-plan / exploration cadence (s)
constexpr double kAdjustPeriod = 1.0;    ///< Algorithm 1/2 evaluation cadence (s)
constexpr double kTracePeriod = 0.5;     ///< sampling of the report traces (s)
// Freshness window of path-tracking commands at the mux: run_adjustment sets
// it to 1.5 × the VDP makespan, clamped to [kMinMuxTimeout, kMaxMuxTimeout].
constexpr double kMinMuxTimeout = 0.8;
constexpr double kMaxMuxTimeout = 6.0;
}  // namespace

MissionRunner::MissionRunner(sim::Scenario scenario, DeploymentPlan plan,
                             MissionConfig config)
    : scenario_(std::move(scenario)),
      config_(config),
      runtime_(std::move(plan), scenario_.wap_position, config.channel,
               config.telemetry,
               FleetAttachment{.pool = config.worker_pool,
                               .vehicle_index = config.vehicle_index,
                               .standby = config.standby_pool,
                               // Jitter stream off the effective seed: fleet
                               // vehicles already derive distinct seeds, so
                               // no two share a retry schedule.
                               .backoff_seed = config.effective_seed() ^ 0xba5eba11}),
      fault_injector_(config.faults),
      // Subsystem seeds derive from the *effective* seed: in a fleet each
      // vehicle's index mixes into the fleet seed via splitmix64, so two
      // vehicles never drive identical RNG streams.
      robot_({}, scenario_.start, config.effective_seed() ^ 0xb0b),
      lidar_({}, config.effective_seed() ^ 0x11d),
      battery_(config.battery_wh),
      costmap_(scenario_.world.frame().origin, scenario_.world.width_m(),
               scenario_.world.height_m()),
      rollout_() {
  rollout_.set_samples(config_.rollout_samples);

  const bool exploration =
      runtime_.plan().workload == WorkloadKind::kExplorationWithoutMap;
  if (exploration) {
    perception::GmappingConfig gc;
    gc.particles = config_.slam_particles;
    slam_.emplace(gc, scenario_.world.frame().origin, scenario_.world.width_m(),
                  scenario_.world.height_m(), config_.effective_seed() ^ 0x51a);
    slam_->initialize(scenario_.start);
  } else {
    // "CostmapGen uses existing map data" — seed the known map from ground
    // truth, as a previously recorded SLAM map would be.
    perception::OccupancyGridConfig map_cfg;
    map_cfg.resolution = scenario_.world.frame().resolution;
    known_map_ = perception::OccupancyGrid::from_binary(
        scenario_.world.frame(), scenario_.world.grid(), map_cfg);
    if (config_.localization == LocalizationBackend::kVision) {
      // §IX vision-based LGV: corner landmarks + forward camera + VO.
      auto landmarks = perception::extract_landmarks(scenario_.world);
      camera_.emplace(perception::CameraConfig{}, landmarks,
                      config_.effective_seed() ^ 0xca3);
      vo_.emplace(perception::VisualOdometryConfig{}, std::move(landmarks));
      vo_->initialize(scenario_.start);
      vo_last_odom_ = scenario_.start;
    } else {
      amcl_.emplace(perception::AmclConfig{}, &known_map_,
                    config_.effective_seed() ^ 0xa3c1);
      amcl_->initialize(scenario_.start);
    }
    costmap_.set_static_map(known_map_.to_msg(0.0));
    goal_ = scenario_.goal;
  }

  fault_injector_.attach_channel(&runtime_.channel());
  fault_injector_.set_telemetry(runtime_.telemetry());
  if (!config_.faults.empty()) {
    // Worker faults always bite remote executions; lease_fallback only
    // decides whether anything *recovers* from them (the bench's "adaptive"
    // vs. "adaptive+fallback" ablation).
    runtime_.set_fault_injector(&fault_injector_);
    runtime_.set_lease_fallback(config_.lease_fallback);
  }
  if (config_.worker_pool != nullptr) {
    // Pool faults (pool_crash/degrade/partition) bite at the *shared* pool:
    // the harness owns the pool, so it attaches the schedule there
    // (pool.set_fault_injector) — a runner-owned injector would dangle once
    // its runner dies while the pool lives on.
    //
    // Failover snapshots price their transfer off the real serialized state,
    // and only a committed transfer advances the SLAM delta base — an
    // aborted failover must never key future deltas on state the standby
    // never received.
    runtime_.set_state_snapshot(
        [this] {
          return serialized_state_bytes(runtime_.clock().now(), nullptr);
        },
        [this] {
          if (slam_.has_value()) slam_->mark_migration_committed();
        });
  }

  pose_estimate_ = scenario_.start;
  mux_.add_input({"path_tracking", 10, kMinMuxTimeout});
  mux_.add_input({"recovery", 50, 0.3});
  mux_.add_input({"safety", 100, 0.25});

  setup_graph();
}

void MissionRunner::setup_graph() {
  mw::Graph& g = runtime_.graph();
  scan_pub_ = g.advertise<msg::LaserScan>("lidar_driver", "scan");
  odom_pub_ = g.advertise<msg::Odometry>("lidar_driver", "odom");
  pose_pub_ = g.advertise<msg::PoseStamped>(node_name(NodeId::kLocalization), "pose");
  tf_pub_ = g.advertise<msg::PoseStamped>(node_name(NodeId::kLocalization), "map_to_odom");
  cmd_pub_ = g.advertise<msg::TwistMsg>(node_name(NodeId::kPathTracking), "cmd_vel");

  g.subscribe<msg::LaserScan>(node_name(NodeId::kLocalization), "scan",
                              [this](const msg::LaserScan& s) {
                                scan_for_loc_ = s;
                                scan_loc_ctx_ = capture_ctx();
                              });
  g.subscribe<msg::LaserScan>(node_name(NodeId::kCostmapGen), "scan",
                              [this](const msg::LaserScan& s) {
                                scan_for_cg_ = s;
                                scan_cg_ctx_ = capture_ctx();
                              });
  g.subscribe<msg::Odometry>(node_name(NodeId::kLocalization), "odom",
                             [this](const msg::Odometry& o) { latest_odom_ = o; });
  // The pose estimate flows back to the vehicle side (and to path tracking,
  // wherever it runs).
  g.subscribe<msg::PoseStamped>("base_controller", "pose",
                                [this](const msg::PoseStamped& p) {
                                  pose_estimate_ = p.pose;
                                  pose_stamp_ = p.header.stamp;
                                });
  g.subscribe<msg::PoseStamped>("base_controller", "map_to_odom",
                                [this](const msg::PoseStamped& p) {
                                  map_to_odom_ = p.pose;
                                });
  g.subscribe<msg::TwistMsg>(node_name(NodeId::kVelocityMux), "cmd_vel",
                             [this](const msg::TwistMsg& t) {
                               const double now = runtime_.clock().now();
                               mux_.on_command("path_tracking", t.velocity, now);
                               // VDP makespan: scan capture → command arrival.
                               const double makespan = now - t.header.stamp;
                               if (makespan >= 0.0) {
                                 runtime_.profiler().record_vdp_makespan(
                                     runtime_.vdp_placement(), makespan);
                               }
                             });

  runtime_.switcher().set_stream_callback([this](double sent, double now) {
    runtime_.profiler().on_stream_packet(now);
    runtime_.profiler().record_rtt(sent, sent + 2.0 * (now - sent));
  });
}

telemetry::Tracer* MissionRunner::tracer() {
  telemetry::Telemetry* t = runtime_.telemetry();
  return t != nullptr ? &t->tracer() : nullptr;
}

telemetry::TraceContext MissionRunner::capture_ctx() {
  telemetry::Tracer* tr = tracer();
  return tr != nullptr ? tr->current() : telemetry::TraceContext{};
}

void MissionRunner::defer(double due, std::function<void()> fn) {
  deferred_.push_back({due, capture_ctx(), std::move(fn)});
}

void MissionRunner::pump(double now) {
  // Run every deferred completion that is due; completions may enqueue
  // publishes, so loop until stable.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].due <= now) {
        auto fn = std::move(deferred_[i].fn);
        const telemetry::TraceContext ctx = deferred_[i].ctx;
        deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        {
          // Completions re-enter the context captured at defer() time so the
          // publishes they trigger stay children of the producing span.
          telemetry::ScopedTraceContext scope(tracer(), ctx);
          fn();
        }
        progressed = true;
      } else {
        ++i;
      }
    }
    runtime_.switcher().step();
    if (runtime_.graph().spin() > 0) progressed = true;
  }
}

double MissionRunner::current_velocity_cap() const {
  const auto& profiler = runtime_.profiler();
  const auto measured = profiler.vdp_makespan(runtime_.vdp_placement());
  // Before the first command round-trips, assume one scan period of latency.
  const double tp = measured.value_or(config_.scan_period * 2.0);
  return runtime_.controller().velocity_cap(tp);
}

void MissionRunner::on_scan_tick(double now) {
  // Every sensor tick roots a fresh trace; everything downstream — local node
  // executions, wire frames, remote spans, deferred publishes — parents under
  // it, forming one cross-host DAG per scan.
  if (telemetry::Tracer* tr = tracer()) {
    tr->begin_trace();
    const uint32_t root = tr->instant_now(
        "scan.tick", "lgv", "lidar_driver", {{"seq", scan_seq_}});
    if (root != 0) tr->set_current({tr->current().trace_id, root});
  }

  msg::LaserScan scan = lidar_.scan(scenario_.world, robot_.pose(), now);
  scan.header.seq = scan_seq_;
  msg::Odometry odom = robot_.odometry(now, scan_seq_);
  ++scan_seq_;

  // Safety controller watches the raw scan locally (never offloaded, §IX).
  if (const auto intervention = safety_.evaluate(scan)) {
    mux_.on_command("safety", *intervention, now);
  }

  // Move-publish: the Graph takes ownership of the payload; local
  // subscribers alias it instead of copying (mw_zero_copy_total).
  scan_pub_.publish(std::move(scan));
  odom_pub_.publish(std::move(odom));

  // Vision-based LGV: the camera frames at the scan rate (sensor local).
  if (camera_.has_value()) {
    frame_for_loc_ = camera_->capture(scenario_.world, robot_.pose(), now);
    frame_ctx_ = capture_ctx();
  }

  // Charge the (tiny) velocity-mux arbitration for this cycle.
  platform::ExecutionContext mux_ctx = runtime_.make_context(NodeId::kVelocityMux);
  mux_ctx.serial_work(calib::kVelMuxCyclesPerCommand);
  runtime_.finish(NodeId::kVelocityMux, mux_ctx);

  // Fixed-rate measurement stream for Algorithm 2 (velocity messages when
  // path tracking is remote; 48 B probes otherwise — see DESIGN.md).
  if (runtime_.plan().offload && runtime_.plan().adaptive) {
    runtime_.switcher().send_stream_packet();
  }
  runtime_.profiler().on_robot_position(robot_.pose().position());
}

void MissionRunner::run_localization(double now) {
  const bool vision = vo_.has_value();
  if (vision) {
    if (!frame_for_loc_.has_value() || now < loc_busy_until_ || now < frozen_until_)
      return;
  } else if (!scan_for_loc_.has_value() || now < loc_busy_until_ ||
             now < frozen_until_) {
    return;
  }

  // Run under the context captured with the consumed input so the node span
  // (and the deferred pose publish) stitch to the scan that produced it.
  telemetry::ScopedTraceContext trace_scope(tracer(),
                                            vision ? frame_ctx_ : scan_loc_ctx_);

  platform::ExecutionContext ctx = runtime_.make_context(NodeId::kLocalization);
  const Pose2D odom_used = latest_odom_.pose;
  Pose2D estimate;
  double frame_stamp = 0.0;
  if (vision) {
    const perception::VisualFrame frame = *frame_for_loc_;
    frame_for_loc_.reset();
    frame_stamp = frame.stamp;
    const Pose2D delta = vo_last_odom_.between(latest_odom_.pose);
    vo_last_odom_ = latest_odom_.pose;
    vo_->update(delta, frame, ctx);
    estimate = vo_->pose();
  } else if (slam_.has_value()) {
    const msg::LaserScan scan = *scan_for_loc_;
    scan_for_loc_.reset();
    frame_stamp = scan.header.stamp;
    slam_->process(latest_odom_, scan, ctx);
    estimate = slam_->best_pose();
  } else {
    const msg::LaserScan scan = *scan_for_loc_;
    scan_for_loc_.reset();
    frame_stamp = scan.header.stamp;
    amcl_->update(latest_odom_, scan, ctx);
    estimate = amcl_->estimate();
  }
  const auto outcome = runtime_.finish_guarded(NodeId::kLocalization, ctx);
  loc_busy_until_ = now + outcome.latency;

  // map→odom correction: map_pose = correction ∘ odom_pose at match time.
  const Pose2D correction = estimate.compose(odom_used.inverse());
  defer(loc_busy_until_, [this, estimate, correction, stamp = frame_stamp] {
    msg::PoseStamped p;
    p.header.stamp = stamp;
    p.pose = estimate;
    pose_pub_.publish(std::move(p));
    msg::PoseStamped tf;
    tf.header.stamp = stamp;
    tf.pose = correction;
    tf_pub_.publish(std::move(tf));
  });
}

void MissionRunner::run_costmap(double now) {
  if (!scan_for_cg_.has_value() || now < cg_busy_until_ || now < frozen_until_) return;
  const msg::LaserScan scan = *scan_for_cg_;
  scan_for_cg_.reset();
  telemetry::ScopedTraceContext trace_scope(tracer(), scan_cg_ctx_);

  // Exploration: refresh the static layer from the SLAM map so the costmap
  // covers newly mapped terrain (Fig. 2's map→costmap edge).
  if (slam_.has_value()) {
    costmap_.set_static_map(slam_->best_map().to_msg(now));
  }

  platform::ExecutionContext ctx = runtime_.make_context(NodeId::kCostmapGen);
  const perception::CostmapUpdateStats stats = costmap_.update(current_pose(), scan);
  ctx.serial_work(static_cast<double>(stats.raytraced_cells) *
                      calib::kCostmapRaytraceCyclesPerCell +
                  static_cast<double>(stats.inflated_cells) *
                      calib::kInflationCyclesPerCell);
  const auto outcome = runtime_.finish_guarded(NodeId::kCostmapGen, ctx);
  cg_busy_until_ = now + outcome.latency;
  defer(cg_busy_until_, [this, stamp = scan.header.stamp] {
    costmap_stamp_ = stamp;
    costmap_ctx_ = capture_ctx();  // path tracking keys off this costmap
  });
}

void MissionRunner::run_tracking(double now) {
  if (costmap_stamp_ <= tracked_costmap_stamp_ || now < pt_busy_until_ ||
      now < frozen_until_ || path_.poses.empty()) {
    return;
  }
  tracked_costmap_stamp_ = costmap_stamp_;
  telemetry::ScopedTraceContext trace_scope(tracer(), costmap_ctx_);

  platform::ExecutionContext ctx = runtime_.make_context(NodeId::kPathTracking);
  double cap = current_velocity_cap();
  // Controller: bound the turn rate so one stale decision can't swing the
  // heading wildly while the next command is still in flight.
  const double makespan = runtime_.profiler()
                              .vdp_makespan(runtime_.vdp_placement())
                              .value_or(config_.scan_period * 2.0);
  double angular_cap =
      runtime_.controller().angular_cap(makespan, rollout_.config().max_angular);
  if (vo_.has_value()) {
    // §IX vision constraint: never rotate faster than the tracker can follow
    // between frames, and crawl while tracking is lost so it can relock.
    angular_cap = std::min(
        angular_cap, perception::max_trackable_angular_rate(
                         camera_->config().fov_rad, config_.scan_period, 0.75));
    if (vo_->lost()) cap = std::min(cap, 0.08);
  }
  rollout_.set_angular_limit(angular_cap);
  const control::RolloutDecision decision = rollout_.compute(
      costmap_, path_, current_pose(), robot_.velocity(), cap, ctx);
  const auto outcome = runtime_.finish_guarded(NodeId::kPathTracking, ctx);
  pt_busy_until_ = now + outcome.latency;

  defer(pt_busy_until_, [this, decision, stamp = costmap_stamp_] {
    msg::TwistMsg cmd;
    cmd.header.stamp = stamp;  // originating scan time → VDP makespan
    cmd.velocity = decision.command;
    cmd_pub_.publish(std::move(cmd));
  });
}

void MissionRunner::run_planning(double now, bool force) {
  if (!goal_.has_value() || now < pp_busy_until_) return;
  if (!force && now - last_replan_ < kReplanPeriod) return;
  last_replan_ = now;

  platform::ExecutionContext ctx = runtime_.make_context(NodeId::kPathPlanning);
  const planning::PlanResult result =
      planner_.plan(costmap_, {current_pose(), *goal_}, ctx);
  const auto outcome = runtime_.finish_guarded(NodeId::kPathPlanning, ctx);
  pp_busy_until_ = now + outcome.latency;
  if (result.success) {
    defer(pp_busy_until_, [this, path = result.path] { path_ = path; });
  }
}

void MissionRunner::run_exploration(double now) {
  if (!slam_.has_value()) return;

  // Give up on a frontier goal that made no progress for a while: slivers
  // inside inflation or behind clutter are unreachable in practice.
  if (goal_.has_value()) {
    const double d = distance(robot_.pose().position(), goal_->position());
    if (d < explore_best_dist_ - 0.1) {
      explore_best_dist_ = d;
      explore_goal_set_time_ = now;
    }
    if (now - explore_goal_set_time_ > 40.0) {
      frontier_blacklist_.push_back(goal_->position());
      goal_.reset();
      path_.poses.clear();
    }
  }

  platform::ExecutionContext ctx = runtime_.make_context(NodeId::kExploration);
  const planning::FrontierResult result =
      frontier_.detect(slam_->best_map().to_msg(now), current_pose(), ctx);
  runtime_.finish_guarded(NodeId::kExploration, ctx);

  // Drop blacklisted frontiers; any surviving cluster keeps exploration
  // going (frontiers can legitimately be doorway-sized).
  std::optional<Point2D> next_goal;
  for (const planning::Frontier& f : result.frontiers) {
    const bool blacklisted =
        std::any_of(frontier_blacklist_.begin(), frontier_blacklist_.end(),
                    [&](const Point2D& b) { return distance(b, f.centroid) < 0.6; });
    if (blacklisted) continue;
    next_goal = f.centroid;
    break;
  }

  if (next_goal.has_value()) {
    const Pose2D new_goal{next_goal->x, next_goal->y, 0.0};
    if (!goal_.has_value() || distance(goal_->position(), new_goal.position()) > 0.5) {
      goal_ = new_goal;
      explore_best_dist_ = 1e18;
      explore_goal_set_time_ = now;
      run_planning(now, /*force=*/true);
    }
  } else if (now > config_.explore_done_grace &&
             slam_->best_map().known_area_m2() > 4.0) {
    // No (reachable) frontier mass left: the environment is mapped.
    explored_ = true;
  }
}

void MissionRunner::run_adjustment(double now) {
  auto& profiler = runtime_.profiler();

  // Widen the command freshness window to ride out slow pipelines without
  // stuttering, while still timing out under genuine network death.
  const double makespan =
      profiler.vdp_makespan(runtime_.vdp_placement()).value_or(config_.scan_period);
  mux_.set_timeout("path_tracking",
                   std::clamp(1.5 * makespan, kMinMuxTimeout, kMaxMuxTimeout));

  // §VIII-E: shed cloud parallelism when the vehicle can't use the speed
  // (obstacle-dense or turning phases) — saves cloud cost at no mission cost.
  if (config_.adaptive_parallelism && runtime_.plan().offload) {
    const double cap = current_velocity_cap();
    const int rec = runtime_.controller().recommend_threads(
        std::abs(robot_.velocity().linear), cap, runtime_.active_threads());
    if (rec != runtime_.active_threads()) {
      runtime_.set_active_threads(rec);
    } else if (std::abs(robot_.velocity().linear) > 0.85 * cap) {
      // Back to full parallelism when the vehicle is using the headroom.
      runtime_.set_active_threads(runtime_.plan().remote_threads);
    }
    report_.min_active_threads =
        std::min(report_.min_active_threads, runtime_.active_threads());
  }

  if (!runtime_.plan().offload || !runtime_.plan().adaptive) return;

  // ---- Algorithm 2: bandwidth + signal direction → placement.
  const NetworkObservation obs = profiler.observe(now);
  VdpPlacement wanted = runtime_.network_controller().update(obs);
  if (telemetry::Telemetry* t = runtime_.telemetry()) {
    // Every Algorithm 2 evaluation with the observation snapshot that drove
    // it — the trace answers "why did it migrate at t=412s?" directly.
    t->tracer().instant_now(
        "alg2.decision", "decisions", "algorithm2",
        {{"bandwidth_hz", obs.bandwidth_hz},
         {"direction", obs.signal_direction},
         {"wanted", wanted == VdpPlacement::kRemote ? "remote" : "local"},
         {"current",
          runtime_.vdp_placement() == VdpPlacement::kRemote ? "remote" : "local"}});
    if (alg2_decisions_ == nullptr) {
      alg2_decisions_ = &t->metrics().counter("alg_decisions_total", {{"algorithm", "2"}});
    }
    alg2_decisions_->inc();
  }

  // ---- Algorithm 1 (MCT goal): confirm remote placement still pays off.
  if (wanted == VdpPlacement::kRemote &&
      runtime_.plan().goal == Goal::kCompletionTime) {
    const auto tl = profiler.vdp_makespan(VdpPlacement::kLocal);
    const auto tc = profiler.vdp_makespan(VdpPlacement::kRemote);
    if (tl.has_value() && tc.has_value() && *tc > *tl) {
      wanted = VdpPlacement::kLocal;
      runtime_.network_controller().force(VdpPlacement::kLocal);
    }
  }

  const bool switched = runtime_.set_vdp_placement(wanted);

  // ---- multi-tier re-trigger: while the VDP is remote, every adjustment
  // epoch (and every Algorithm 2 switch) re-optimizes the N-host plan against
  // the live link model; it re-enumerates only when the link model moved. A
  // no-op for two-host plans or while Algorithm 2 holds the vehicle local.
  runtime_.reoptimize_placement(switched ? "alg2_switch" : "adjust_epoch");

  if (switched) {
    // State migration: the costmap snapshot plus the actual serialized filter
    // state (RBPF particle poses, weights and maps for exploration; AMCL's
    // pose cloud for known-map missions). The byte counts are real encoded
    // sizes; the transfer itself is modeled on the TCP link. SLAM encodes
    // deltas against the last committed migration where the codec can —
    // the first transfer (and any after heavy map churn) falls back to full
    // RLE snapshots per grid.
    const uint64_t cow_before = cow_detach_count();
    bool used_delta = false;
    const double state_bytes = serialized_state_bytes(now, &used_delta);
    const MigrationResult mig = runtime_.switcher().migrate_state(
        state_bytes, wanted == VdpPlacement::kRemote,
        used_delta ? "delta" : "full");
    frozen_until_ = mig.completion;  // a failed transfer still costs its time
    if (telemetry::Telemetry* t = runtime_.telemetry()) {
      if (slam_.has_value()) {
        t->metrics()
            .gauge("migration_delta_hit_ratio")
            .set(slam_->last_codec_stats().delta_hit_ratio());
      }
      t->metrics()
          .counter("grid_cow_copies_total")
          .inc(cow_detach_count() - cow_before);
    }
    if (mig.committed && slam_.has_value()) {
      // The receiver provably holds this exact state (commit record round-
      // tripped): advance the delta base. An aborted transfer leaves the
      // base untouched, so the next encode still keys on a state the far
      // side actually has.
      slam_->mark_migration_committed();
    }
    if (!mig.committed) {
      // Torn transfer: the far end never acknowledged a complete, verified
      // state image, so running there would mean a partial particle set.
      // Revert to the local replica through the same path a lease expiry
      // takes, and let Algorithm 2 re-evaluate once the channel recovers.
      runtime_.network_controller().force(VdpPlacement::kLocal);
      runtime_.set_vdp_placement(VdpPlacement::kLocal);
      if (telemetry::Telemetry* t = runtime_.telemetry()) {
        t->tracer().instant_now("migration.abort", "network", "switcher",
                                {{"attempts", mig.attempts}});
        // Post-mortem: the last N events leading up to the torn transfer.
        t->dump_flight("migration_abort");
      }
    }
  }
}

double MissionRunner::serialized_state_bytes(double now, bool* used_delta) {
  double bytes =
      static_cast<double>(serialize_to_bytes(costmap_.to_msg(now)).size());
  if (slam_.has_value()) {
    bytes += static_cast<double>(
        slam_->serialize_state(perception::StateEncoding::kDelta).size());
    if (used_delta != nullptr) {
      *used_delta = slam_->last_codec_stats().grids_delta > 0;
    }
  }
  if (amcl_.has_value()) {
    bytes += static_cast<double>(amcl_->serialize_state().size());
  }
  return bytes;
}

void MissionRunner::integrate_energy(double now, double prev_speed) {
  (void)now;
  const double v = std::abs(robot_.velocity().linear);
  const double a = (v - prev_speed) / kTick;
  sim::PowerDraw draw;
  const auto& pm = runtime_.power();
  draw.sensor = pm.sensor_power();
  draw.microcontroller = pm.microcontroller_power();
  draw.motor = pm.motor_power(v, a);
  draw.computer = pm.config().computer_idle_w;  // Eq. 1c dynamic part is
                                                // charged per execution
  runtime_.energy().accumulate(draw, kTick);
  runtime_.charge_cloud_time(kTick);

  // Drain the battery by everything consumed since the last tick (including
  // per-execution Eq. 1c and per-message Eq. 1b charges).
  const double total = runtime_.energy().energy().total();
  battery_.drain(total - battery_drained_j_);
  battery_drained_j_ = total;
}

MissionReport MissionRunner::run() {
  start();
  while (step()) {
  }
  return finalize();
}

void MissionRunner::start() {
  report_ = MissionReport{};
  report_.deployment = runtime_.plan().name;
  report_.min_active_threads = runtime_.active_threads();
  report_.workload = runtime_.plan().workload == WorkloadKind::kNavigationWithMap
                         ? "navigation"
                         : "exploration";
  done_ = false;
  runtime_.apply_initial_placement();
}

bool MissionRunner::step() {
  SimClock& clock = runtime_.clock();
  if (done_ || clock.now() >= config_.timeout) return false;
  {
    const double now = clock.now();

    // ---- scripted faults overlay the channel before anything else moves
    fault_injector_.update(now);

    // ---- sensing at the scan rate
    if (now - last_scan_time_ >= config_.scan_period - 1e-9) {
      last_scan_time_ = now;
      on_scan_tick(now);
    }

    // ---- dataflow: deliveries, then any node whose input is ready
    pump(now);
    run_localization(now);
    run_costmap(now);
    if (slam_.has_value() && now - last_replan_ >= kReplanPeriod) {
      run_exploration(now);
    }
    run_planning(now, /*force=*/path_.poses.empty());
    run_tracking(now);
    pump(now);

    // ---- runtime adjustment (Algorithms 1 & 2)
    if (now - last_adjust_ >= kAdjustPeriod) {
      last_adjust_ = now;
      run_adjustment(now);
    }

    // ---- pool failover plane: keep the breaker/standby machinery moving
    // even when Algorithm 2 has retreated local (a crashed pool pollutes the
    // remote makespan, so without this probe the failover would starve).
    runtime_.step_failover(now);

    // ---- stuck recovery (local, ROS-style recovery behavior)
    {
      std::optional<double> heading_error;
      const Pose2D here = current_pose();
      for (const Pose2D& wp : path_.poses) {
        if (distance(wp.position(), here.position()) > 0.5) {
          const double bearing =
              std::atan2(wp.y - here.y, wp.x - here.x);
          heading_error = angle_diff(bearing, here.theta);
          break;
        }
      }
      const bool nav_active = goal_.has_value() && !path_.poses.empty();
      if (const auto cmd = recovery_.update(now, std::abs(robot_.velocity().linear),
                                            nav_active, heading_error)) {
        mux_.on_command("recovery", *cmd, now);
      }
    }

    // ---- actuation + physics
    platform::ExecutionContext dummy;
    const Velocity2D cmd = mux_.select(now, dummy);
    robot_.set_command(cmd);
    const double prev_speed = std::abs(robot_.velocity().linear);
    robot_.step(scenario_.world, kTick);
    runtime_.channel().set_robot_position(robot_.pose().position());
    integrate_energy(now, prev_speed);

    if (observer_) {
      TickState ts;
      ts.t = now;
      ts.robot_pose = robot_.pose();
      ts.estimated_pose = current_pose();
      ts.command = cmd;
      ts.velocity_cap = current_velocity_cap();
      ts.path_waypoints = path_.poses.size();
      ts.goal = goal_;
      ts.collided = robot_.collided();
      ts.mux_source = mux_.active_source().has_value()
                          ? mux_.active_source()->c_str()
                          : "(none)";
      observer_(ts);
    }

    if (std::abs(robot_.velocity().linear) < 0.02) {
      report_.standby_time += kTick;
    }

    // ---- traces
    if (now - last_trace_ >= kTracePeriod) {
      last_trace_ = now;
      const double cap = current_velocity_cap();
      report_.velocity_trace.push_back(
          {now, cap, std::abs(robot_.velocity().linear)});
      // Skip the optimistic pre-measurement default at mission start.
      if (now > 10.0) {
        report_.peak_velocity_cap = std::max(report_.peak_velocity_cap, cap);
      }
      NetworkSample ns;
      ns.t = now;
      ns.latency_ms = runtime_.profiler().rtt().value_or(0.0) * 1000.0 / 2.0;
      const NetworkObservation obs = runtime_.profiler().observe(now);
      ns.bandwidth_hz = obs.bandwidth_hz;
      ns.direction = obs.signal_direction;
      ns.remote = runtime_.vdp_placement() == VdpPlacement::kRemote;
      report_.network_trace.push_back(ns);
    }

    // ---- completion
    if (goal_.has_value() && !slam_.has_value()) {
      const double d = distance(robot_.pose().position(), scenario_.goal.position());
      if (d < best_goal_distance_ - 0.05) {
        best_goal_distance_ = d;
        last_progress_time_ = now;
      }
      if (d < kGoalTolerance) {
        report_.success = true;
        done_ = true;
      }
      if (now - last_progress_time_ > 60.0) {
        run_planning(now, /*force=*/true);
        last_progress_time_ = now;
      }
    }
    if (explored_) {
      report_.success = true;
      done_ = true;
    }
    if (battery_.depleted()) {
      report_.success = false;
      done_ = true;
    }
  }
  clock.advance(kTick);
  return !done_ && clock.now() < config_.timeout;
}

MissionReport MissionRunner::finalize() {
  const SimClock& clock = runtime_.clock();
  report_.completion_time = clock.now();
  report_.distance_traveled = robot_.distance_traveled();
  report_.average_velocity =
      report_.completion_time > 0 ? report_.distance_traveled / report_.completion_time
                                  : 0.0;
  report_.energy = runtime_.energy().energy();
  report_.network = runtime_.switcher().stats();
  report_.placement_switches = runtime_.network_controller().switches();
  report_.fallbacks = runtime_.fallback_count();
  report_.busy_fallbacks = runtime_.busy_fallback_count();
  report_.pool_failovers = runtime_.pool_failovers();
  report_.faults_injected = fault_injector_.activated_events();
  report_.battery_state_of_charge = battery_.state_of_charge();
  report_.cloud_core_seconds = runtime_.cloud_core_seconds();
  if (slam_.has_value()) report_.explored_area_m2 = slam_->best_map().known_area_m2();
  for (const std::string& name : runtime_.meter().node_names()) {
    report_.node_cycles[name] = runtime_.meter().cycles(name);
    report_.node_invocations[name] = runtime_.meter().invocations(name);
  }
  if (const telemetry::Telemetry* t = runtime_.telemetry()) {
    report_.metrics = t->metrics().snapshot();
    report_.trace_events = t->tracer().size();
  }
  return report_;
}

}  // namespace lgv::core
