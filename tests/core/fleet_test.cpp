// Fleet serving (docs/fleet-serving.md): several MissionRunners driven in
// lockstep as tenants of ONE shared WorkerPool. Exercises the multi-tenancy
// seams end to end: per-vehicle seed derivation, session-stamped wire frames
// crossing one emulated channel, worker admission/backpressure, and the
// busy → local fallback.
#include <gtest/gtest.h>

#include "core/mission_runner.h"
#include "core/worker_pool.h"

namespace lgv::core {
namespace {

using platform::Host;

MissionConfig fleet_config(int vehicle_index, WorkerPool* pool) {
  MissionConfig cfg;
  cfg.rollout_samples = 200;
  cfg.slam_particles = 10;
  cfg.timeout = 600.0;
  cfg.vehicle_index = vehicle_index;
  cfg.worker_pool = pool;
  return cfg;
}

TEST(Fleet, TwoVehiclesShareOneWorkerPool) {
  WorkerPoolConfig wc;
  wc.cores = 8;
  wc.threads = 4;
  WorkerPool pool(wc);

  MissionRunner v0(sim::make_fleet_scenario(0, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   fleet_config(0, &pool));
  MissionRunner v1(sim::make_fleet_scenario(1, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   fleet_config(1, &pool));

  // Lockstep: both runners advance one tick per round against the shared
  // pool, exactly how the fleet bench drives N vehicles.
  v0.start();
  v1.start();
  bool r0 = true, r1 = true;
  while (r0 || r1) {
    if (r0) r0 = v0.step();
    if (r1) r1 = v1.step();
  }
  const MissionReport m0 = v0.finalize();
  const MissionReport m1 = v1.finalize();

  EXPECT_TRUE(m0.success) << "t=" << m0.completion_time;
  EXPECT_TRUE(m1.success) << "t=" << m1.completion_time;

  // Both vehicles were admitted as distinct sessions of the shared pool.
  EXPECT_NE(v0.runtime().worker_session(), 0u);
  EXPECT_NE(v1.runtime().worker_session(), 0u);
  EXPECT_NE(v0.runtime().worker_session(), v1.runtime().worker_session());
  EXPECT_GT(pool.requests(), 0u);

  // Session-stamped frames: neither vehicle's traffic tripped the other's
  // duplicate/ordering detection (the v3 sequencing key is per-session).
  EXPECT_EQ(m0.network.frames_rejected, 0u);
  EXPECT_EQ(m1.network.frames_rejected, 0u);
  EXPECT_GT(m0.network.uplink_messages, 10u);
  EXPECT_GT(m1.network.uplink_messages, 10u);

  // splitmix64 seed derivation: the two missions are genuinely different
  // runs, not two replays of one RNG stream on different lanes.
  EXPECT_NE(fleet_config(0, nullptr).effective_seed(),
            fleet_config(1, nullptr).effective_seed());
  EXPECT_NE(m0.completion_time, m1.completion_time);
}

TEST(Fleet, UndersizedPoolDegradesToLocalNotFailure) {
  // A pool too small for the tenant's parallelism bounces requests; the
  // vehicle must absorb every bounce as a local re-execution and still
  // finish the mission.
  WorkerPoolConfig wc;
  wc.cores = 1;
  wc.threads = 1;
  wc.busy_wait_s = 0.0005;  // nearly any queueing → busy verdict
  WorkerPool pool(wc);

  MissionRunner v0(sim::make_fleet_scenario(0, 1),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   fleet_config(0, &pool));
  const MissionReport m = v0.run();
  EXPECT_TRUE(m.success) << "t=" << m.completion_time;
  EXPECT_GT(v0.runtime().busy_fallback_count(), 0u);
  EXPECT_GT(pool.busy_rejects(), 0u);
}

TEST(Fleet, StandaloneVehicleUnchangedByFleetFields) {
  // vehicle_index = -1 (the default) must keep the original single-tenant
  // behavior bit-for-bit: seed used as-is, no session on the wire.
  MissionConfig cfg;
  cfg.rollout_samples = 200;
  cfg.slam_particles = 10;
  cfg.timeout = 600.0;
  EXPECT_EQ(cfg.effective_seed(), cfg.seed);

  MissionRunner runner(sim::make_open_scenario(),
                       offload_plan("cloud_4t", Host::kCloudServer, 4,
                                    WorkloadKind::kNavigationWithMap),
                       cfg);
  const MissionReport m = runner.run();
  EXPECT_TRUE(m.success);
  EXPECT_EQ(runner.runtime().worker_pool(), nullptr);
  EXPECT_EQ(m.network.frames_rejected, 0u);
}

TEST(Fleet, RealThreadCountDoesNotMoveVirtualResults) {
  // The pool's real threads only execute kernels; modeled time keys cycles
  // by grain, so one real thread and four report the same mission.
  auto run_on = [](int threads) {
    WorkerPoolConfig wc;
    wc.cores = 16;
    wc.threads = threads;
    WorkerPool pool(wc);
    MissionRunner v0(sim::make_fleet_scenario(0, 1),
                     offload_plan("cloud_4t", Host::kCloudServer, 4,
                                  WorkloadKind::kNavigationWithMap),
                     fleet_config(0, &pool));
    return v0.run();
  };
  const MissionReport one = run_on(1);
  const MissionReport four = run_on(4);
  ASSERT_TRUE(one.success);
  ASSERT_TRUE(four.success);
  EXPECT_EQ(one.completion_time, four.completion_time);
  EXPECT_EQ(one.energy.total(), four.energy.total());
}

// ---- fleet-scale fault tolerance (PR 9) -------------------------------------

TEST(Fleet, PrimaryPoolCrashFailsOverToStandbyMidMission) {
  WorkerPoolConfig wc;
  wc.cores = 8;
  wc.threads = 4;
  WorkerPool primary(wc);
  WorkerPool standby(wc);

  // The primary dies at t=5 (mid-mission) and never comes back; every
  // vehicle must open its breaker, ship a failover snapshot, and finish on
  // the standby.
  sim::FaultSchedule faults;
  faults.add(sim::FaultKind::kPoolCrash, 5.0, 1e6);

  MissionConfig c0 = fleet_config(0, &primary);
  MissionConfig c1 = fleet_config(1, &primary);
  c0.standby_pool = &standby;
  c1.standby_pool = &standby;
  c0.faults = faults;
  c1.faults = faults;

  MissionRunner v0(sim::make_fleet_scenario(0, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   c0);
  MissionRunner v1(sim::make_fleet_scenario(1, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   c1);
  // The harness owns the pool and its fault plane: the pool consults one
  // vehicle's (identical) schedule.
  ASSERT_NE(v0.runtime().fault_injector(), nullptr);
  primary.set_fault_injector(v0.runtime().fault_injector());

  v0.start();
  v1.start();
  bool r0 = true, r1 = true;
  while (r0 || r1) {
    if (r0) r0 = v0.step();
    if (r1) r1 = v1.step();
  }
  const MissionReport m0 = v0.finalize();
  const MissionReport m1 = v1.finalize();

  // Every mission completes despite losing the primary mid-flight.
  EXPECT_TRUE(m0.success) << "t=" << m0.completion_time;
  EXPECT_TRUE(m1.success) << "t=" << m1.completion_time;

  // Both vehicles committed a failover and ended up served by the standby.
  EXPECT_GE(m0.pool_failovers, 1u);
  EXPECT_GE(m1.pool_failovers, 1u);
  EXPECT_GT(standby.requests(), 0u);
  EXPECT_EQ(v0.runtime().remote_host(), Host::kEdgeGateway);  // standby's host

  // The switch rode a committed "failover" state migration — never a torn
  // particle set, and no session ever tripped integrity rejection.
  EXPECT_GE(v0.runtime().switcher().stats().failover_migrations, 1u);
  EXPECT_EQ(m0.network.frames_rejected, 0u);
  EXPECT_EQ(m1.network.frames_rejected, 0u);

  // Flight-recorder coverage: the first committed failover fired the trigger.
  ASSERT_NE(v0.runtime().telemetry(), nullptr);
  EXPECT_DOUBLE_EQ(v0.runtime()
                       .telemetry()
                       ->metrics()
                       .counter("flight_recorder_dumps_total",
                                {{"trigger", "pool_failover"}})
                       .value(),
                   1.0);

  // Accounting invariant: every per-vehicle busy fallback was attributed to
  // exactly one pool — the fleet sum matches the pool sum.
  EXPECT_EQ(m0.busy_fallbacks, v0.runtime().busy_fallback_count());
  EXPECT_EQ(
      v0.runtime().busy_fallback_count() + v1.runtime().busy_fallback_count(),
      primary.busy_fallbacks() + standby.busy_fallbacks());
}

TEST(Fleet, BusyFallbackAccountingMatchesPoolTotals) {
  // The undersized-pool scenario bounces constantly: Σ per-vehicle
  // busy_fallback_count must equal the pool's busy_fallbacks() aggregate
  // (pool_busy_fallback_total) — no bounce lost, none double-counted.
  WorkerPoolConfig wc;
  wc.cores = 1;
  wc.threads = 1;
  wc.busy_wait_s = 0.0005;
  WorkerPool pool(wc);

  MissionRunner v0(sim::make_fleet_scenario(0, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   fleet_config(0, &pool));
  MissionRunner v1(sim::make_fleet_scenario(1, 2),
                   offload_plan("cloud_4t", Host::kCloudServer, 4,
                                WorkloadKind::kNavigationWithMap),
                   fleet_config(1, &pool));
  v0.start();
  v1.start();
  bool r0 = true, r1 = true;
  while (r0 || r1) {
    if (r0) r0 = v0.step();
    if (r1) r1 = v1.step();
  }
  const MissionReport m0 = v0.finalize();
  const MissionReport m1 = v1.finalize();
  EXPECT_TRUE(m0.success);
  EXPECT_TRUE(m1.success);
  EXPECT_GT(v0.runtime().busy_fallback_count() +
                v1.runtime().busy_fallback_count(),
            0u);
  EXPECT_EQ(
      v0.runtime().busy_fallback_count() + v1.runtime().busy_fallback_count(),
      pool.busy_fallbacks());
  EXPECT_EQ(m0.busy_fallbacks + m1.busy_fallbacks, pool.busy_fallbacks());
}

}  // namespace
}  // namespace lgv::core
