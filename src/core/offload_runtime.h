// OffloadRuntime assembles the Fig. 8 system: the computation graph, the
// emulated wireless network, the Switcher transport, the Profiler, the
// Controller, Algorithm 1 (initial placement) and Algorithm 2 (runtime
// switching), plus the platform cost models and the remote thread pool used
// for cloud acceleration. MissionRunner drives it; examples and tests can
// also use it directly.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "core/controller.h"
#include "core/network_quality.h"
#include "core/node_classifier.h"
#include "core/offload_planner.h"
#include "core/placement_engine.h"
#include "core/pool_failover.h"
#include "core/profiler.h"
#include "core/switcher.h"
#include "core/worker_pool.h"
#include "middleware/graph.h"
#include "net/wireless_channel.h"
#include "platform/cost_model.h"
#include "platform/execution_context.h"
#include "platform/work_meter.h"
#include "sim/fault_injector.h"
#include "sim/power.h"

namespace lgv::core {

/// One evaluated deployment (the legend entries of Figs. 12/13).
struct DeploymentPlan {
  std::string name = "local";
  bool offload = false;                     ///< any remote execution at all
  platform::Host remote_host = platform::Host::kEdgeGateway;
  int remote_threads = 1;                   ///< >1 enables §V parallelization
  Goal goal = Goal::kCompletionTime;        ///< Algorithm 1 optimization goal
  bool adaptive = true;                     ///< Algorithm 2 enabled
  WorkloadKind workload = WorkloadKind::kNavigationWithMap;
  /// N-host mode: place the pipeline over a lgv → edge_gateway → cloud_server
  /// HostTopology with the PlacementEngine, seeded by Algorithm 1's two-host
  /// answer. Algorithm 2 keeps its retreat-local authority; while the VDP is
  /// remote, adjustment epochs re-optimize the placement instead of the
  /// binary flip.
  bool multi_tier = false;
  int edge_threads = 8;  ///< gateway parallel width in the three-tier topology
};

DeploymentPlan local_plan(WorkloadKind workload);
DeploymentPlan offload_plan(const std::string& name, platform::Host remote, int threads,
                            WorkloadKind workload, Goal goal = Goal::kCompletionTime);
/// Three-tier deployment: remote set defaults to the cloud (Algorithm 1's
/// seed), with the edge gateway available as a middle tier for the engine.
DeploymentPlan three_tier_plan(const std::string& name, int cloud_threads,
                               WorkloadKind workload,
                               Goal goal = Goal::kCompletionTime);

/// Fleet-serving attachment: instead of owning a private remote thread pool,
/// the runtime becomes one tenant of a shared WorkerPool (one per fleet) —
/// it opens a leased session, executes remote kernels through the pool's
/// fair-share schedule, and degrades to local compute when the pool answers
/// "busy". The pool must outlive every runtime attached to it.
struct FleetAttachment {
  WorkerPool* pool = nullptr;
  /// >= 0 identifies this vehicle in the fleet: stamps the wire session id
  /// (vehicle_index + 1) on every frame and defaults the telemetry
  /// vehicle_id to "lgv-<index>".
  int vehicle_index = -1;
  /// Standby pool (PR 9): on primary loss, once the per-vehicle circuit
  /// breaker opens, the runtime ships a crash-consistent state snapshot to
  /// the standby's host — the edge gateway — and re-admits there with a
  /// fresh session. nullptr = no failover target (backoff and breaker still
  /// protect the primary).
  WorkerPool* standby = nullptr;
  /// Seed of the vehicle's splitmix64 busy-retry jitter stream. 0 derives a
  /// stream from vehicle_index so even unseeded vehicles never share a retry
  /// schedule; fleets should pass vehicle_seed(fleet_seed, index)-derived
  /// values for full determinism under reseeding. The backoff and breaker
  /// policy is FailoverConfig's defaults.
  uint64_t backoff_seed = 0;
};

class OffloadRuntime {
 public:
  OffloadRuntime(DeploymentPlan plan, Point2D wap_position,
                 net::ChannelConfig channel_config = {},
                 telemetry::TelemetryConfig telemetry_config = {},
                 FleetAttachment fleet = {});

  const DeploymentPlan& plan() const { return plan_; }

  /// The shared telemetry bundle (metrics registry + virtual-time tracer)
  /// every subsystem records into, or nullptr when telemetry is disabled —
  /// the disabled path is a single pointer test on each hot path.
  telemetry::Telemetry* telemetry() { return telemetry_.get(); }
  const telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

  // ---- shared infrastructure ----
  SimClock& clock() { return clock_; }
  mw::Graph& graph() { return graph_; }
  net::WirelessChannel& channel() { return channel_; }
  Switcher& switcher() { return switcher_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }
  Controller& controller() { return controller_; }
  const Controller& controller() const { return controller_; }
  NetworkQualityController& network_controller() { return netctl_; }
  platform::WorkMeter& meter() { return meter_; }
  sim::EnergyMeter& energy() { return energy_; }
  const sim::PowerModel& power() const { return power_; }

  // ---- placement ----
  platform::Host host_of(NodeId id) const;
  void place(NodeId id, platform::Host host);
  /// Run Algorithm 1 with the current profiled VDP times and apply it. In
  /// multi-tier mode the two-host answer then seeds an exact PlacementEngine
  /// solve over the three-tier topology, and the engine's (never-worse) plan
  /// is what gets applied.
  OffloadDecision apply_initial_placement();

  /// The N-host optimizer (nullptr unless plan().multi_tier).
  PlacementEngine* placement_engine() { return placement_engine_.get(); }
  /// Feed the live link observables into the topology's links: the
  /// profiler's RTT and the channel's effective uplink/downlink rates (the
  /// capacities the Switcher prices Eq. 1b and migrations with). Material
  /// changes bump the topology generation and invalidate the cost tables;
  /// unchanged numbers are free (repeated steps with unchanged profiles
  /// rebuild nothing).
  void refresh_placement_model();
  /// Re-optimization re-trigger (the cooperating layer Algorithm 2 and
  /// AP-handoff events invoke): re-enumerates only when the link model
  /// moved. Applies the resulting assignment while the VDP is remote; a
  /// no-op when the vehicle has retreated local (Algorithm 2 keeps that
  /// authority) or when not in multi-tier mode. `trigger` labels the
  /// telemetry marker.
  PlacementResult reoptimize_placement(const char* trigger);
  /// Algorithm 2 outcome: move every currently-remote node local (or the
  /// plan's remote set back out). Returns true when anything moved.
  bool set_vdp_placement(VdpPlacement placement);
  VdpPlacement vdp_placement() const { return vdp_placement_; }

  // ---- execution ----
  /// Context for running `id`'s kernel right now: remote nodes with
  /// parallelization enabled get the remote pool, everything else is serial.
  platform::ExecutionContext make_context(NodeId id);

  /// §VIII-E adaptivity: shrink/grow the worker count used by parallel
  /// kernels at runtime (the pool keeps plan().remote_threads threads; fewer
  /// chunks are dispatched). Clamped to [1, plan().remote_threads].
  void set_active_threads(int threads);
  int active_threads() const { return active_threads_; }

  /// Accrue cloud/edge resource usage for `dt` seconds of virtual time:
  /// while any node is remote, the reservation is active_threads() cores.
  /// §VIII-E: shedding unused parallelism "saves the financial cost and
  /// resource usage on the cloud servers".
  void charge_cloud_time(double dt);
  /// Reserved core-seconds accrued so far.
  double cloud_core_seconds() const { return cloud_core_seconds_; }
  /// Finish an execution: convert the recorded work to virtual time on the
  /// node's platform, charge the work meter, charge Eq. 1c energy when the
  /// node ran on the LGV, and feed the Profiler. Returns the virtual
  /// processing time (s).
  double finish(NodeId id, platform::ExecutionContext& ctx);

  /// Attach the chaos harness. Channel faults are applied by the injector's
  /// own update(); worker faults are consulted by finish_guarded(). nullptr
  /// (the default) disables fault awareness entirely — finish_guarded
  /// degenerates to finish().
  void set_fault_injector(sim::FaultInjector* injector) { fault_injector_ = injector; }
  sim::FaultInjector* fault_injector() { return fault_injector_; }

  /// Lease protocol toggle. With it off, faults still delay remote results
  /// (a stalled worker or dead link holds the caller hostage for as long as
  /// the fault lasts) but nothing recovers — the ablation baseline the bench
  /// compares the fallback against. Default on.
  void set_lease_fallback(bool enabled) { lease_fallback_ = enabled; }
  bool lease_fallback() const { return lease_fallback_; }

  /// Result of one guarded node execution (docs/faults.md).
  struct ExecutionOutcome {
    double latency = 0.0;   ///< virtual seconds from dispatch to usable result
    bool fell_back = false; ///< lease expired → node was re-executed locally
  };

  /// finish() wrapped in the remote-execution lease: a node running on a
  /// remote host is granted a lease of Controller::lease_timeout(profiled
  /// T_c, RTT). If worker stalls/crashes or a forced link outage push the
  /// result past the deadline, the execution is abandoned and re-run locally
  /// (re-entrant fallback: the recorded work profile is re-timed on the LGV
  /// cost model and Eq. 1c energy charged), `fallback_total` is counted, an
  /// `alg2.fallback` instant is traced, and the NetworkQualityController is
  /// forced to kLocal so Algorithm 2 doesn't re-offload into the same hole.
  ExecutionOutcome finish_guarded(NodeId id, platform::ExecutionContext& ctx);

  /// Lease expirations → local re-executions so far (includes busy bounces).
  uint64_t fallback_count() const { return fallback_count_; }
  /// Subset of fallback_count(): executions the shared worker refused with a
  /// retryable "busy" (admission backpressure), run locally instead.
  uint64_t busy_fallback_count() const { return busy_fallback_count_; }

  /// The shared fleet worker this runtime is a tenant of (nullptr when it
  /// owns its compute), and its session on the pool serving it now (0 until
  /// first admitted).
  WorkerPool* worker_pool() { return failover_ ? failover_->pool(0) : nullptr; }
  SessionId worker_session() const {
    return failover_ ? failover_->session(failover_->active_index()) : 0;
  }

  // ---- pool failover (PR 9) ----
  /// Committed pool switches (primary → standby or back) so far. Each one
  /// rode a committed "failover"-mode state migration — never a torn set.
  uint64_t pool_failovers() const { return failover_ ? failover_->failovers() : 0; }
  /// Failover snapshot transfers that aborted (torn): the committed pool and
  /// the SLAM delta base are unchanged; the vehicle kept running local.
  uint64_t failovers_aborted() const { return failovers_aborted_; }
  /// Host currently serving this vehicle's remote nodes — the plan's remote
  /// host until a committed failover re-points it at the standby's host.
  platform::Host remote_host() const { return remote_host_; }
  /// Failover snapshot provider: `bytes` returns the serialized state size
  /// (costmap + filter state) right now; `committed` is invoked only when
  /// the transfer commits — the delta-base-advance hook, so an aborted
  /// failover can never advance the base past state the far side lacks.
  void set_state_snapshot(std::function<double()> bytes,
                          std::function<void()> committed) {
    snapshot_bytes_fn_ = std::move(bytes);
    snapshot_committed_fn_ = std::move(committed);
  }

  /// Advance the pool-failover state machine even while Algorithm 2 runs the
  /// VDP locally. Without this, a crash that pollutes the remote makespan
  /// profile pins the placement local and the standby snapshot — which only
  /// progresses when a remote execution acquires a worker — starves
  /// forever. Call once per control tick; it is a no-op unless a failover is
  /// pending, the committed pool's breaker is open, or busy verdicts are
  /// accumulating. Refusals here do not count as busy fallbacks (no node ran).
  void step_failover(double now);

  const platform::CostModel& cost_model(platform::Host host) const;

  /// Estimated one-way uplink network latency for a scan-sized message under
  /// current conditions (used for T_c prediction).
  double predicted_network_latency();

 private:
  /// Acquire a serving pool + live session via the failover client (backoff
  /// window, breakers, primary/standby selection). The client decides; this
  /// ships the failover snapshot it asks for and commits the one that
  /// landed. A result with pool == nullptr means run locally this time, with
  /// the refusal's cause and blamed pool in it.
  PoolFailoverClient::Acquire acquire_worker(double now);
  /// Flip the committed pool to `target` after its failover snapshot landed:
  /// client commit, delta-base advance, remote nodes re-placed onto the new
  /// pool's host, pool_failovers_total + flight-recorder coverage.
  void complete_failover(int target, double now);
  /// Charge one execution of `id` on `host` starting at `start`: time its
  /// profile on the host's cost model, charge the work meter, add Eq. 1c
  /// energy on the LGV, feed the Profiler, and record the node's span (with
  /// `args`) as the current trace context plus its execution metrics.
  /// Returns the execution time (s).
  double charge_execution(NodeId id, platform::Host host,
                          const platform::ExecutionContext& ctx, double start,
                          telemetry::TraceArgList args);
  /// The "busy" degradation: run the node locally, count it as a fallback
  /// with `cause` against `pool` (pool_busy_fallback_total accounting), and
  /// leave the placement alone — a busy verdict is a retryable refusal, not
  /// a dead link, so the next tick tries remote again.
  ExecutionOutcome busy_fallback(NodeId id, platform::ExecutionContext& ctx,
                                 const char* cause, WorkerPool* pool);
  /// Apply an engine assignment (dag index i < |all_nodes()| ↔ all_nodes()[i])
  /// through place(). Returns whether any T3 node ended up remote.
  bool apply_engine_assignment(const uint8_t* assignment, size_t n);
  /// node_invocations_total / node_exec_seconds{node,host} for one execution
  /// of `t` seconds, through handles registered on first use.
  void record_node_execution(NodeId id, platform::Host host, double t);

  DeploymentPlan plan_;
  /// Declared before remote_pool_ so the pool's destructor (which joins the
  /// workers) runs first: the pool's workers record into this bundle
  /// (thread_pool.h, set_telemetry).
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  SimClock clock_;
  mw::Graph graph_;
  net::WirelessChannel channel_;
  sim::PowerModel power_;
  sim::EnergyMeter energy_;
  Switcher switcher_;
  Profiler profiler_;
  Controller controller_;
  NetworkQualityController netctl_;
  OffloadPlanner planner_;
  platform::WorkMeter meter_;
  std::map<NodeId, platform::Host> placement_;
  std::map<NodeId, NodeTraits> traits_;
  /// Private remote pool — only when no shared WorkerPool is attached.
  std::unique_ptr<ThreadPool> remote_pool_;
  /// Tenancy in a shared fleet WorkerPool (primary + optional standby, not
  /// owned); nullptr when the runtime owns its compute.
  std::unique_ptr<PoolFailoverClient> failover_;
  std::function<double()> snapshot_bytes_fn_;
  std::function<void()> snapshot_committed_fn_;
  uint64_t failovers_aborted_ = 0;
  /// Host serving remote nodes now (standby's host after failover).
  platform::Host remote_host_ = platform::Host::kEdgeGateway;
  std::map<platform::Host, platform::CostModel> cost_models_;
  /// N-host placement optimizer (multi_tier plans only).
  std::unique_ptr<PlacementEngine> placement_engine_;
  VdpPlacement vdp_placement_ = VdpPlacement::kLocal;
  int active_threads_ = 1;
  double cloud_core_seconds_ = 0.0;
  sim::FaultInjector* fault_injector_ = nullptr;
  bool lease_fallback_ = true;
  uint64_t fallback_count_ = 0;
  uint64_t busy_fallback_count_ = 0;

  // Per-execution metric handles, registered on first use so the registry
  // holds the same series an uncached lookup would have created.
  struct NodeMetrics {
    telemetry::Counter* invocations = nullptr;
    telemetry::Histogram* exec_seconds = nullptr;
  };
  static constexpr size_t kNodeSlots = static_cast<size_t>(NodeId::kVelocityMux) + 1;
  static constexpr size_t kHostSlots = static_cast<size_t>(platform::Host::kCloudServer) + 1;
  std::array<std::array<NodeMetrics, kHostSlots>, kNodeSlots> node_metrics_{};
  telemetry::Counter* lease_grants_ = nullptr;
};

}  // namespace lgv::core
