#include "core/offload_runtime.h"

#include <algorithm>

namespace lgv::core {

DeploymentPlan local_plan(WorkloadKind workload) {
  DeploymentPlan p;
  p.name = "local";
  p.offload = false;
  p.adaptive = false;
  p.workload = workload;
  return p;
}

DeploymentPlan offload_plan(const std::string& name, platform::Host remote, int threads,
                            WorkloadKind workload, Goal goal) {
  DeploymentPlan p;
  p.name = name;
  p.offload = true;
  p.remote_host = remote;
  p.remote_threads = threads;
  p.goal = goal;
  p.workload = workload;
  return p;
}

DeploymentPlan three_tier_plan(const std::string& name, int cloud_threads,
                               WorkloadKind workload, Goal goal) {
  DeploymentPlan p =
      offload_plan(name, platform::Host::kCloudServer, cloud_threads, workload, goal);
  p.multi_tier = true;
  return p;
}

namespace {

/// Round-trip WAN leg to the datacenter (2 × the one-way wired latency
/// adjust_channel adds for cloud deployments) — what separates the vehicle →
/// cloud path from the vehicle → gateway path in the three-tier topology.
constexpr double kWanRttS = 0.024;

net::ChannelConfig adjust_channel(net::ChannelConfig cfg, Point2D wap,
                                  platform::Host remote) {
  cfg.wap_position = wap;
  // Packets to the datacenter continue over the WAN (§VIII-A: a VM from a
  // public cloud provider); the edge gateway sits on the lab LAN.
  cfg.wan_latency_s = remote == platform::Host::kCloudServer ? 0.012 : 0.0;
  return cfg;
}
}  // namespace

OffloadRuntime::OffloadRuntime(DeploymentPlan plan, Point2D wap_position,
                               net::ChannelConfig channel_config,
                               telemetry::TelemetryConfig telemetry_config,
                               FleetAttachment fleet)
    : plan_(std::move(plan)),
      channel_(adjust_channel(channel_config, wap_position, plan_.remote_host)),
      power_(),
      switcher_(&graph_, &channel_, &clock_, &energy_, &power_),
      profiler_({}, wap_position),
      controller_(),
      netctl_({}, plan_.offload ? VdpPlacement::kRemote : VdpPlacement::kLocal),
      planner_(plan_.goal, plan_.remote_host),
      vdp_placement_(plan_.offload ? VdpPlacement::kRemote : VdpPlacement::kLocal) {
  remote_host_ = plan_.remote_host;
  if (fleet.vehicle_index >= 0) {
    // Session identity on the wire: every frame this vehicle's Switcher sends
    // carries its id, so the shared worker sequences each vehicle's stream
    // independently (no cross-vehicle duplicate rejects).
    switcher_.set_session_id(static_cast<uint16_t>(fleet.vehicle_index + 1));
    if (telemetry_config.vehicle_id.empty()) {
      telemetry_config.vehicle_id = "lgv-" + std::to_string(fleet.vehicle_index);
    }
  }
  cost_models_.emplace(platform::Host::kLgv,
                       platform::CostModel(platform::turtlebot3_spec()));
  cost_models_.emplace(platform::Host::kEdgeGateway,
                       platform::CostModel(platform::edge_gateway_spec()));
  cost_models_.emplace(platform::Host::kCloudServer,
                       platform::CostModel(platform::cloud_server_spec()));

  for (NodeId id : all_nodes()) {
    traits_[id] = NodeClassifier::static_traits(id, plan_.workload);
    placement_[id] = platform::Host::kLgv;
    graph_.register_node(node_name(id), platform::Host::kLgv);
  }
  // Sensor driver and base controller always live on the vehicle.
  graph_.register_node("lidar_driver", platform::Host::kLgv);
  graph_.register_node("base_controller", platform::Host::kLgv);
  // Remote worker endpoint (Fig. 8's WORKER module).
  graph_.register_node("worker", plan_.remote_host);
  graph_.set_remote_transport(&switcher_);

  if (plan_.offload && plan_.remote_threads > 1 && fleet.pool == nullptr) {
    // Genuine worker pool for the parallel kernels (Figs. 5/6). Timing still
    // comes from the cost model; the pool provides real concurrent execution.
    // With a shared fleet WorkerPool attached, the runtime is a tenant of
    // that pool instead of owning one per vehicle.
    remote_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(plan_.remote_threads));
  }
  active_threads_ = plan_.offload ? plan_.remote_threads : 1;

  if (fleet.pool != nullptr) {
    // Every pool tenant gets the failover policy (even standby-less: the
    // jittered backoff and the breaker still pace a busy/dead primary). The
    // jitter stream must differ per vehicle or 128 bounced tenants retry in
    // lockstep — an unseeded attachment falls back to the vehicle index.
    const uint64_t seed = fleet.backoff_seed != 0
                              ? fleet.backoff_seed
                              : static_cast<uint64_t>(fleet.vehicle_index + 2);
    const std::string label = fleet.vehicle_index >= 0
                                  ? "lgv-" + std::to_string(fleet.vehicle_index)
                                  : plan_.name;
    failover_ = std::make_unique<PoolFailoverClient>(fleet.pool, fleet.standby,
                                                     seed, label);
  }

  if (telemetry_config.enabled) {
    telemetry_ = std::make_unique<telemetry::Telemetry>(telemetry_config);
    telemetry_->set_clock(&clock_);
    graph_.set_telemetry(telemetry_.get());
    switcher_.set_telemetry(telemetry_.get());
    profiler_.set_telemetry(telemetry_.get());
    if (remote_pool_ != nullptr) {
      remote_pool_->set_telemetry(telemetry_.get(),
                                  platform::host_name(plan_.remote_host));
    }
  }

  if (plan_.multi_tier && plan_.offload) {
    // The three-tier world the engine prices: WLAN numbers seeded from the
    // channel config (uplink rate is bits/s on the wire, bytes/s in the
    // topology), refreshed live from the Profiler as the mission runs.
    HostTopology topo = HostTopology::three_tier(
        plan_.edge_threads, std::max(1, plan_.remote_threads),
        channel_config.uplink_rate_bps / 8.0,
        2.0 * channel_config.base_latency_s, /*wlan_loss=*/0.0, kWanRttS);
    placement_engine_ = std::make_unique<PlacementEngine>(
        make_pipeline_dag(), std::move(topo));
    placement_engine_->set_telemetry(telemetry_.get());
  }
}

void OffloadRuntime::set_active_threads(int threads) {
  active_threads_ = std::clamp(threads, 1, std::max(1, plan_.remote_threads));
}

void OffloadRuntime::charge_cloud_time(double dt) {
  bool any_remote = false;
  for (const auto& [id, host] : placement_) {
    any_remote |= host != platform::Host::kLgv;
  }
  if (any_remote) {
    cloud_core_seconds_ += static_cast<double>(active_threads_) * dt;
  }
}

platform::Host OffloadRuntime::host_of(NodeId id) const { return placement_.at(id); }

void OffloadRuntime::place(NodeId id, platform::Host host) {
  placement_[id] = host;
  graph_.set_host(node_name(id), host);
}

OffloadDecision OffloadRuntime::apply_initial_placement() {
  OffloadDecision decision;
  double tl = 0.0;
  double tc = 0.0;
  if (!plan_.offload) {
    for (NodeId id : all_nodes()) decision.placement[id] = platform::Host::kLgv;
  } else {
    // T_l^v and T_c from the profiler when available, otherwise from the cost
    // models' first-principles prediction (no history yet at mission start).
    tl = profiler_.vdp_makespan(VdpPlacement::kLocal).value_or(1.0);
    tc = profiler_.vdp_makespan(VdpPlacement::kRemote)
             .value_or(0.1 + predicted_network_latency());
    decision = planner_.decide(traits_, tl, tc);
  }
  for (const auto& [id, host] : decision.placement) place(id, host);
  if (placement_engine_ != nullptr && plan_.offload) {
    // Multi-tier: Algorithm 1's two-host answer seeds an exact engine solve
    // over the three-tier topology (the result is never worse than it).
    refresh_placement_model();
    const std::vector<NodeId> nodes = all_nodes();
    const HostTopology& topo = placement_engine_->topology();
    std::vector<uint8_t> seed(placement_engine_->dag().node_count(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const int idx = topo.index_of(decision.placement.at(nodes[i]));
      seed[i] = static_cast<uint8_t>(idx >= 0 ? idx : 0);
    }
    const PlacementResult r = placement_engine_->solve(seed);
    decision.vdp_offloaded =
        apply_engine_assignment(r.assignment.data(), r.assignment.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      decision.placement[nodes[i]] = placement_.at(nodes[i]);
    }
  }
  vdp_placement_ = decision.vdp_offloaded ? VdpPlacement::kRemote : VdpPlacement::kLocal;
  netctl_.force(vdp_placement_);
  if (telemetry_ != nullptr) {
    // Algorithm 1 marker: the Eq. 1–2 inputs and the resulting node map.
    std::vector<telemetry::TraceArg> args = {
        {"goal", plan_.goal == Goal::kCompletionTime ? "completion_time" : "energy"},
        {"tl_s", tl},
        {"tc_s", tc},
        {"vdp", decision.vdp_offloaded ? "remote" : "local"}};
    for (const auto& [id, host] : decision.placement) {
      args.push_back({node_name(id), platform::host_name(host)});
    }
    telemetry_->tracer().instant_now("alg1.initial_placement", "decisions",
                                     "algorithm1", args);
    telemetry_->metrics().counter("alg_decisions_total", {{"algorithm", "1"}}).inc();
  }
  return decision;
}

bool OffloadRuntime::set_vdp_placement(VdpPlacement placement) {
  if (placement == vdp_placement_) return false;
  vdp_placement_ = placement;
  if (telemetry_ != nullptr) {
    telemetry_->tracer().instant_now(
        "alg2.migration", "decisions", "algorithm2",
        {{"to", placement == VdpPlacement::kRemote ? "remote" : "local"}});
    telemetry_->metrics()
        .counter("alg2_migrations_total",
                 {{"to", placement == VdpPlacement::kRemote ? "remote" : "local"}})
        .inc();
  }
  if (placement_engine_ != nullptr) {
    // Multi-tier cooperation: a retreat pulls *every* node home (the engine
    // may have placed non-ECN nodes remote too); a re-offload restores the
    // engine's incumbent N-host plan instead of the binary all-to-remote
    // flip. Algorithm 2 keeps the when; the engine owns the where.
    if (placement == VdpPlacement::kLocal) {
      for (NodeId id : all_nodes()) {
        if (placement_.at(id) != platform::Host::kLgv) {
          place(id, platform::Host::kLgv);
        }
      }
    } else if (placement_engine_->has_incumbent()) {
      const PlacementCandidate& inc = placement_engine_->incumbent();
      apply_engine_assignment(inc.host.data(), inc.host.size());
    }
    return true;
  }
  for (NodeId id : all_nodes()) {
    const NodeClass cls = traits_.at(id).node_class();
    const bool offloadable =
        cls == NodeClass::kT3 || (plan_.goal == Goal::kEnergy && cls == NodeClass::kT1) ||
        (plan_.goal == Goal::kCompletionTime && cls == NodeClass::kT1);
    if (!offloadable) continue;
    // remote_host_, not the plan's: after a committed pool failover the
    // remote set lives on the standby's host until a failback.
    place(id, placement == VdpPlacement::kRemote ? remote_host_
                                                 : platform::Host::kLgv);
  }
  return true;
}

bool OffloadRuntime::apply_engine_assignment(const uint8_t* assignment, size_t n) {
  const HostTopology& topo = placement_engine_->topology();
  const std::vector<NodeId> nodes = all_nodes();
  bool vdp_remote = false;
  for (size_t i = 0; i < nodes.size() && i < n; ++i) {
    const platform::Host kind = topo.host(assignment[i]).kind;
    if (placement_.at(nodes[i]) != kind) place(nodes[i], kind);
    if (traits_.at(nodes[i]).node_class() == NodeClass::kT3 &&
        kind != platform::Host::kLgv) {
      vdp_remote = true;
    }
  }
  return vdp_remote;
}

void OffloadRuntime::refresh_placement_model() {
  if (placement_engine_ == nullptr) return;
  HostTopology& topo = placement_engine_->topology();
  const auto rtt = profiler_.rtt();
  if (!rtt.has_value()) return;  // no live evidence yet: keep the seed model
  // The measured RTT is vehicle ↔ serving host; peel the WAN leg off when the
  // datacenter is serving to recover the WLAN hop both paths share.
  const double wlan_rtt = std::max(
      1e-4, *rtt - (remote_host_ == platform::Host::kCloudServer ? kWanRttS : 0.0));
  // Link capacity is the WLAN's signal-scaled rate in bytes/s — the rate the
  // Switcher prices Eq. 1b energy and migrations with. (Algorithm 2's r_t is
  // the stream's achieved rate, not what the link could carry.)
  const double up_bps = channel_.effective_uplink_bps() / 8.0;
  const double down_bps = channel_.effective_downlink_bps() / 8.0;
  const auto feed = [&](int a, int b, double bw, double rtt_s) {
    if (a < 0 || b < 0) return;
    topo.observe_link(a, b, bw, rtt_s, topo.link(a, b).loss);
  };
  const int edge = topo.index_of(platform::Host::kEdgeGateway);
  const int cloud = topo.index_of(platform::Host::kCloudServer);
  feed(0, edge, up_bps, wlan_rtt);
  feed(edge, 0, down_bps, wlan_rtt);
  feed(0, cloud, up_bps, wlan_rtt + kWanRttS);
  feed(cloud, 0, down_bps, wlan_rtt + kWanRttS);
}

PlacementResult OffloadRuntime::reoptimize_placement(const char* trigger) {
  PlacementResult r;
  if (placement_engine_ == nullptr || !placement_engine_->has_incumbent()) return r;
  if (vdp_placement_ != VdpPlacement::kRemote) return r;  // Alg 2's retreat holds
  refresh_placement_model();
  r = placement_engine_->reoptimize();
  apply_engine_assignment(r.assignment.data(), r.assignment.size());
  if (telemetry_ != nullptr) {
    telemetry_->tracer().instant_now(
        "placement.retrigger", "decisions", "placement",
        {{"trigger", trigger},
         {"cost_s", r.cost_s},
         {"improved", r.improved ? "true" : "false"}});
  }
  return r;
}

platform::ExecutionContext OffloadRuntime::make_context(NodeId id) {
  const platform::Host host = host_of(id);
  const bool parallel_kernels =
      id == NodeId::kPathTracking || id == NodeId::kLocalization;
  if (host != platform::Host::kLgv && parallel_kernels && active_threads_ > 1) {
    if (failover_ != nullptr) {
      // Shared fleet worker: the kernel's chunks run on the serving pool's
      // real threads; WorkerPool::schedule fair-shares the modeled time. Not
      // admitted right now (busy, backoff window, breaker open, failover
      // snapshot in flight) → serial context; finish_guarded will count the
      // busy fallback.
      const PoolFailoverClient::Acquire acq = acquire_worker(clock_.now());
      if (acq.pool != nullptr) {
        return platform::ExecutionContext(&acq.pool->threads(), active_threads_);
      }
      return platform::ExecutionContext(nullptr, 1);
    }
    if (remote_pool_ != nullptr) {
      return platform::ExecutionContext(remote_pool_.get(), active_threads_);
    }
  }
  return platform::ExecutionContext(nullptr, 1);
}

void OffloadRuntime::complete_failover(int target, double now) {
  // The snapshot round-tripped its commit record and has now fully landed:
  // the target pool's host provably holds this vehicle's exact state, so
  // remote execution there is crash-consistent from here on.
  failover_->migration_committed(target);
  if (snapshot_committed_fn_) snapshot_committed_fn_();
  // Placement and cost-model pricing follow the commit: the standby runs on
  // the edge gateway (nearer than the primary, but slower).
  remote_host_ = target == 1 ? platform::Host::kEdgeGateway : plan_.remote_host;
  for (const auto& [id, host] : placement_) {
    if (host != platform::Host::kLgv && host != remote_host_) {
      place(id, remote_host_);
    }
  }
  if (vdp_placement_ == VdpPlacement::kLocal) {
    // The crash drove Algorithm 2 local, and the remote makespan it would
    // consult was measured against the dead pool — stale evidence that would
    // veto the healthy standby indefinitely. Drop it, and re-arm remote
    // directly: the committed snapshot IS the state migration, so flipping
    // here is crash-consistent without another transfer.
    profiler_.reset_vdp_makespan(VdpPlacement::kRemote);
    netctl_.force(VdpPlacement::kRemote);
    set_vdp_placement(VdpPlacement::kRemote);
  }
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter("pool_failovers_total", {{"outcome", "committed"}})
        .inc();
    telemetry_->tracer().instant_now(
        "pool.failover", "decisions", "failover",
        {{"to", target == 1 ? "standby" : "primary"},
         {"host", platform::host_name(remote_host_)},
         {"at", now}});
    // First failover of the run snapshots the flight recorder: the events
    // leading up to the primary loss are the post-mortem.
    telemetry_->dump_flight("pool_failover");
  }
}

PoolFailoverClient::Acquire OffloadRuntime::acquire_worker(double now) {
  PoolFailoverClient::Acquire acq = failover_->acquire(now);
  if (acq.ship_snapshot) {
    // Crash-consistent re-admission (the PR 4 commit discipline, one pool
    // up): before any kernel runs on the new pool, its host must hold a
    // complete, verified state image. The snapshot rides the same chunked
    // CRC+commit transfer as Algorithm 2's migrations, in "failover" mode.
    const double bytes = snapshot_bytes_fn_ ? snapshot_bytes_fn_() : 16.0 * 1024.0;
    const MigrationResult mig =
        switcher_.migrate_state(bytes, /*uplink=*/true, "failover");
    if (mig.committed) {
      failover_->snapshot_shipped(mig.completion);
    } else {
      // Torn transfer: committed pool and delta base unchanged; the target
      // takes a breaker failure and the backoff paces the retry.
      ++failovers_aborted_;
      failover_->migration_aborted(now);
      if (telemetry_ != nullptr) {
        telemetry_->metrics()
            .counter("pool_failovers_total", {{"outcome", "aborted"}})
            .inc();
        telemetry_->tracer().instant_now(
            "pool.failover_abort", "decisions", "failover",
            {{"attempts", mig.attempts}});
      }
    }
    // Either way the vehicle keeps executing locally for now: the committed
    // image is still on the wire, or there is none.
    acq.blamed = acq.pool;
    acq.pool = nullptr;
    acq.blocked = "migrating";
  } else if (acq.needs_migration) {
    complete_failover(acq.pool_index, now);
  }
  return acq;
}

void OffloadRuntime::step_failover(double now) {
  if (failover_ == nullptr) return;
  // Only probe when the failure plane is actually in play: a pending
  // snapshot transfer, an open breaker on the committed pool, or a busy
  // streak pacing retries. A healthy, idle runtime skips the acquire so the
  // backoff/lease cadence stays identical to a purely execution-driven run.
  const bool committed_down =
      failover_->breaker_open(failover_->committed_index(), now);
  if (!failover_->snapshot_pending() && !committed_down &&
      failover_->busy_streak() == 0) {
    return;
  }
  (void)acquire_worker(now);
}

double OffloadRuntime::finish(NodeId id, platform::ExecutionContext& ctx) {
  return charge_execution(
      id, host_of(id), ctx, clock_.now(),
      {{"cycles", ctx.profile().total_cycles()}, {"threads", ctx.threads()}});
}

double OffloadRuntime::charge_execution(NodeId id, platform::Host host,
                                        const platform::ExecutionContext& ctx,
                                        double start, telemetry::TraceArgList args) {
  const platform::CostModel& model = cost_models_.at(host);
  const double t = model.execution_time(ctx.profile());
  const char* node = node_name(id);
  meter_.charge(node, ctx.profile().total_cycles());
  if (host == platform::Host::kLgv) {
    energy_.add_computer_energy(model.dynamic_energy(ctx.profile()));
  }
  profiler_.record_node_time(id, host, t);
  if (telemetry_ != nullptr) {
    // Per-node execution lane: the span runs for the cost-model execution
    // time; a migration or fallback shows as the node's lane jumping to
    // another host group in the trace.
    telemetry::Tracer& tracer = telemetry_->tracer();
    const uint32_t span_id =
        tracer.span(node, platform::host_name(host), node, start, t, args);
    // Downstream work (the deferred result publish and whatever it causes)
    // parents under this node's execution span.
    if (span_id != 0) {
      tracer.set_current(telemetry::TraceContext{tracer.current().trace_id, span_id});
    }
    record_node_execution(id, host, t);
  }
  return t;
}

void OffloadRuntime::record_node_execution(NodeId id, platform::Host host, double t) {
  NodeMetrics& nm = node_metrics_[static_cast<size_t>(id)][static_cast<size_t>(host)];
  if (nm.invocations == nullptr) {
    const telemetry::Labels labels = {{"node", node_name(id)},
                                      {"host", platform::host_name(host)}};
    auto& m = telemetry_->metrics();
    nm.invocations = &m.counter("node_invocations_total", labels);
    nm.exec_seconds = &m.histogram("node_exec_seconds", labels);
  }
  nm.invocations->inc();
  nm.exec_seconds->observe(t);
}

OffloadRuntime::ExecutionOutcome OffloadRuntime::busy_fallback(
    NodeId id, platform::ExecutionContext& ctx, const char* cause,
    WorkerPool* pool) {
  ++fallback_count_;
  ++busy_fallback_count_;
  // Mirror the per-vehicle increment on the pool that refused, so
  // Σ busy_fallback_count over the fleet == Σ busy_fallbacks over the pools
  // (the accounting invariant FleetTest pins).
  if (pool != nullptr) pool->note_busy_fallback();
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics();
    m.counter("fallback_total", {{"node", node_name(id)}}).inc();
    m.counter("worker_busy_fallback_total", {{"cause", cause}}).inc();
  }
  const double t_local = charge_execution(id, platform::Host::kLgv, ctx, clock_.now(),
                                          {{"outcome", "fallback"}, {"cause", cause}});
  // Unlike a lease expiry, the placement is left alone: "busy" is a
  // retryable refusal, so the next execution tries the worker again —
  // overload shows up as a fallback *rate*, not a permanent retreat.
  return {t_local, true};
}

OffloadRuntime::ExecutionOutcome OffloadRuntime::finish_guarded(
    NodeId id, platform::ExecutionContext& ctx) {
  const platform::Host host = host_of(id);
  if (host == platform::Host::kLgv ||
      (fault_injector_ == nullptr && failover_ == nullptr)) {
    return {finish(id, ctx), false};
  }

  const double now = clock_.now();
  const double t_remote = cost_models_.at(host).execution_time(ctx.profile());

  // When does the remote result actually become usable? On a shared fleet
  // worker the request first waits its turn in the fair-share schedule (or
  // bounces with "busy" under backpressure); worker stall/crash windows then
  // push the computation out; a forced link outage finally blocks the
  // result's return until the link is restored.
  double completion = now + t_remote;
  bool crashed = false;
  bool pool_lost = false;
  if (failover_ != nullptr) {
    const PoolFailoverClient::Acquire acq = acquire_worker(now);
    if (acq.pool == nullptr) return busy_fallback(id, ctx, acq.blocked, acq.blamed);
    const KernelKind kind = id == NodeId::kLocalization ? KernelKind::kScanMatch
                            : id == NodeId::kPathTracking
                                ? KernelKind::kScoreTrajectory
                                : KernelKind::kGeneric;
    const WorkerVerdict v = acq.pool->execute(acq.session, kind, now, t_remote,
                                              std::max(1, active_threads_));
    if (v.busy) {
      // Jittered exponential backoff instead of "retry next tick": the
      // refusal opens this vehicle's backoff window and counts toward the
      // serving pool's breaker, so 128 bounced vehicles desynchronize.
      failover_->on_busy(now);
      return busy_fallback(id, ctx, v.busy_cause != nullptr ? v.busy_cause : "worker_busy",
                           acq.pool);
    }
    completion = v.completion;
    if (acq.pool->result_lost_in(now, completion)) {
      // The pool crashed under the in-flight request: the result died with
      // it. The lease-expiry path below re-executes locally, and the loss
      // counts toward the breaker so the next acquires route to the standby.
      pool_lost = true;
      failover_->on_pool_loss(now);
    } else {
      failover_->on_served();
    }
  }
  if (fault_injector_ != nullptr) {
    completion = fault_injector_->remote_completion(now, completion - now);
    completion = fault_injector_->link_restored_after(completion);
    crashed = fault_injector_->worker_crashed_in(now, completion);
  }

  if (!lease_fallback_) {
    // No lease protocol: the caller naively waits for the remote result no
    // matter how long the stall or outage holds it — the paper's stranded
    // LGV, and the bench's no-fallback ablation.
    const double t = finish(id, ctx);
    return {std::max(t, completion - now), false};
  }

  // Lease: profiled T_c for this node on this host plus RTT headroom for the
  // return trip. A first execution has no profiled sample — the cost-model
  // prediction seeds T_c and the *cold-start* floor applies, so estimate
  // error plus one slow-link round trip can't trigger a spurious expiry
  // before any history exists.
  const auto profiled_tc = profiler_.node_time(id, host);
  const double tc = profiled_tc.value_or(t_remote);
  const double rtt = profiler_.rtt().value_or(2.0 * predicted_network_latency());
  const double lease =
      controller_.lease_timeout(tc, rtt, /*cold_start=*/!profiled_tc.has_value());
  if (telemetry_ != nullptr) {
    if (lease_grants_ == nullptr) {
      lease_grants_ = &telemetry_->metrics().counter("lease_grants_total");
    }
    lease_grants_->inc();
  }

  if (!crashed && !pool_lost && completion - now <= lease) {
    // Result lands inside the lease; the normal bookkeeping applies, with
    // any stall/outage delay visible as extra pipeline latency.
    const double t = finish(id, ctx);
    return {std::max(t, completion - now), false};
  }

  // Lease expired (stalled worker, dead link, or crash — the heartbeats ride
  // the same deadline): abandon the remote execution and re-run the node on
  // the LGV. The remote attempt is not profiled (it never completed) and the
  // crash's state loss means the next re-offload pays a full migration.
  ++fallback_count_;
  const char* node = node_name(id);
  const char* cause = crashed ? "worker_crash" : pool_lost ? "pool_crash" : "lease_timeout";
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics();
    m.counter("fallback_total", {{"node", node}}).inc();
    m.counter("lease_expired_total", {{"cause", cause}}).inc();
    // The wasted remote wait, then the local re-execution, as spans: the
    // trace shows the node's lane hop back to the LGV group at the fallback.
    telemetry_->tracer().span(node, platform::host_name(host), node, now, lease,
                              {{"outcome", "lease_expired"}});
  }
  const double t_local = charge_execution(id, platform::Host::kLgv, ctx, now + lease,
                                          {{"outcome", "fallback"}});
  if (telemetry_ != nullptr) {
    // First lease expiry of the run snapshots the flight recorder for the
    // post-mortem (repeat triggers are no-ops).
    telemetry_->dump_flight("lease_expiry");
    telemetry_->tracer().instant_now(
        "alg2.fallback", "decisions", "algorithm2",
        {{"node", node}, {"lease_s", lease}, {"cause", cause}});
  }

  // Pull the whole VDP home and pin Algorithm 2 local; its normal
  // bandwidth/direction rule takes over again from the local placement once
  // the stream recovers, re-offloading (with a fresh state migration) only
  // when the link has genuinely healed. Exception: a pool loss with a standby
  // configured is NOT a network problem — the link is fine, only the serving
  // pool died — so the placement stays remote and the next executions route
  // through the breaker to the standby (failover), instead of waiting for the
  // bandwidth/direction rule to dare offloading again.
  if (!(pool_lost && failover_->pool(1) != nullptr)) {
    network_controller().force(VdpPlacement::kLocal);
    set_vdp_placement(VdpPlacement::kLocal);
  }

  // The failure is only *observed* at the lease deadline; the local
  // re-execution starts then.
  return {lease + t_local, true};
}

const platform::CostModel& OffloadRuntime::cost_model(platform::Host host) const {
  return cost_models_.at(host);
}

double OffloadRuntime::predicted_network_latency() {
  // One scan up + one velocity command down.
  return channel_.sample_latency(3000) + channel_.sample_latency(64);
}

}  // namespace lgv::core
