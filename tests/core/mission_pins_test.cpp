// Exact mission results: four missions whose report fields are pinned bit
// for bit, at the default SIMD level and again at kScalar.
// The missions cover the clean offloaded path, a lease-expiry fallback, a
// pool failover and busy fallbacks, so a refactor of the remote-execution
// bookkeeping that moves any charge, counter or decision shows here.
//
// The constants are hex floats printed with %a. A change that moves a pin on
// purpose updates it here and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/simd.h"
#include "core/mission_runner.h"
#include "core/worker_pool.h"

namespace lgv::core {
namespace {

using platform::Host;

struct Pin {
  double completion_time;
  double energy_j;
  double standby_time;
  double uplink_bytes;
  double downlink_bytes;
  uint64_t fallbacks;
  uint64_t busy_fallbacks;
  uint64_t pool_failovers;
};

Pin pin_of(const MissionReport& r) {
  return {r.completion_time,      r.energy.total(), r.standby_time,
          r.network.uplink_bytes, r.network.downlink_bytes,
          r.fallbacks,            r.busy_fallbacks, r.pool_failovers};
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void expect_pin(const std::string& what, const Pin& want, const Pin& got) {
  const auto same = [&](const char* field, double w, double g) {
    EXPECT_EQ(w, g) << what << " " << field << ": got " << hex(g) << " (" << g
                    << "), pinned " << hex(w) << " (" << w << ")";
  };
  same("completion_time", want.completion_time, got.completion_time);
  same("energy_j", want.energy_j, got.energy_j);
  same("standby_time", want.standby_time, got.standby_time);
  same("uplink_bytes", want.uplink_bytes, got.uplink_bytes);
  same("downlink_bytes", want.downlink_bytes, got.downlink_bytes);
  EXPECT_EQ(want.fallbacks, got.fallbacks) << what << " fallbacks";
  EXPECT_EQ(want.busy_fallbacks, got.busy_fallbacks) << what << " busy_fallbacks";
  EXPECT_EQ(want.pool_failovers, got.pool_failovers) << what << " pool_failovers";
}

/// Runs `body` at the default SIMD level and again pinned to kScalar.
template <typename Body>
void at_every_level(Body body) {
  body("default");
  simd::force_level(simd::Level::kScalar);
  body("scalar");
  simd::clear_forced_level();
}

/// Steps two runners in lockstep, the way the fleet tests drive them.
void run_lockstep(MissionRunner& v0, MissionRunner& v1) {
  v0.start();
  v1.start();
  bool r0 = true, r1 = true;
  while (r0 || r1) {
    if (r0) r0 = v0.step();
    if (r1) r1 = v1.step();
  }
}

MissionConfig fleet_config(int vehicle_index, WorkerPool* pool) {
  MissionConfig cfg;
  cfg.rollout_samples = 200;
  cfg.slam_particles = 10;
  cfg.timeout = 600.0;
  cfg.vehicle_index = vehicle_index;
  cfg.worker_pool = pool;
  return cfg;
}

DeploymentPlan cloud_4t() {
  return offload_plan("cloud_4t", Host::kCloudServer, 4,
                      WorkloadKind::kNavigationWithMap);
}

TEST(MissionPins, LabOffloadedToGateway) {
  const Pin want = {0x1.8947ae147ad9ap+4, 0x1.bbf6bfe1bad41p+7, 0x1.eb851eb851eb7p-3,
                    0x1.7367p+17, 0x1.369p+14, 0, 0, 0};
  at_every_level([&](const char* level) {
    MissionRunner runner(sim::make_lab_scenario(),
                         offload_plan("gateway_4t", Host::kEdgeGateway, 4,
                                      WorkloadKind::kNavigationWithMap),
                         MissionConfig{});
    expect_pin(std::string("lab ") + level, want, pin_of(runner.run()));
  });
}

TEST(MissionPins, OutageFallsBackToTheVehicle) {
  // FaultInjection.MissionSurvivesMidMissionOutageViaFallback's mission.
  const Pin want = {0x1.a451eb851ecf5p+5, 0x1.bb5111ca24d8bp+8, 0x1.eb851eb851ebep+0,
                    0x1.09b8p+16, 0x1.a39p+14, 1, 0, 0};
  at_every_level([&](const char* level) {
    MissionConfig cfg;
    cfg.timeout = 400.0;
    cfg.faults = sim::make_chaos_schedule(/*outage_s=*/20.0, /*stall_fraction=*/0.0,
                                          /*horizon_s=*/25.0);
    MissionRunner runner(
        sim::make_chaos_scenario(),
        offload_plan("gw4", Host::kEdgeGateway, 4, WorkloadKind::kNavigationWithMap),
        cfg);
    expect_pin(std::string("outage ") + level, want, pin_of(runner.run()));
  });
}

TEST(MissionPins, PrimaryCrashFailsOverToStandby) {
  // Fleet.PrimaryPoolCrashFailsOverToStandbyMidMission's fleet.
  const Pin want0 = {0x1.9eb851eb85182p+3, 0x1.afbfc3ca795e9p+6, 0x1.0a3d70a3d70a3p-2,
                     0x1.890cp+16, 0x1.21p+13, 8, 7, 1};
  const Pin want1 = {0x1.9eb851eb85182p+3, 0x1.c1674aaa4e34dp+6, 0x1.d70a3d70a3d73p-2,
                     0x1.890cp+16, 0x1.ff8p+12, 14, 13, 1};
  at_every_level([&](const char* level) {
    WorkerPoolConfig wc;
    wc.cores = 8;
    wc.threads = 4;
    WorkerPool primary(wc);
    WorkerPool standby(wc);
    sim::FaultSchedule faults;
    faults.add(sim::FaultKind::kPoolCrash, 5.0, 1e6);
    MissionConfig c0 = fleet_config(0, &primary);
    MissionConfig c1 = fleet_config(1, &primary);
    c0.standby_pool = &standby;
    c1.standby_pool = &standby;
    c0.faults = faults;
    c1.faults = faults;
    MissionRunner v0(sim::make_fleet_scenario(0, 2), cloud_4t(), c0);
    MissionRunner v1(sim::make_fleet_scenario(1, 2), cloud_4t(), c1);
    primary.set_fault_injector(v0.runtime().fault_injector());
    run_lockstep(v0, v1);
    expect_pin(std::string("failover v0 ") + level, want0, pin_of(v0.finalize()));
    expect_pin(std::string("failover v1 ") + level, want1, pin_of(v1.finalize()));
  });
}

TEST(MissionPins, UndersizedPoolBouncesToLocal) {
  // Fleet.BusyFallbackAccountingMatchesPoolTotals's fleet.
  const Pin want0 = {0x1.7851eb851eb2ap+3, 0x1.a34b8276ce5ap+6, 0x1.0a3d70a3d70a3p-2,
                     0x1.64c4p+16, 0x1.336p+13, 46, 46, 0};
  const Pin want1 = {0x1.02e147ae14766p+4, 0x1.0a4a582555325p+7, 0x1.51eb851eb8522p+0,
                     0x1.e9ccp+16, 0x1.29p+13, 38, 38, 0};
  at_every_level([&](const char* level) {
    WorkerPoolConfig wc;
    wc.cores = 1;
    wc.threads = 1;
    wc.busy_wait_s = 0.0005;
    WorkerPool pool(wc);
    MissionRunner v0(sim::make_fleet_scenario(0, 2), cloud_4t(), fleet_config(0, &pool));
    MissionRunner v1(sim::make_fleet_scenario(1, 2), cloud_4t(), fleet_config(1, &pool));
    run_lockstep(v0, v1);
    expect_pin(std::string("busy v0 ") + level, want0, pin_of(v0.finalize()));
    expect_pin(std::string("busy v1 ") + level, want1, pin_of(v1.finalize()));
  });
}

}  // namespace
}  // namespace lgv::core
