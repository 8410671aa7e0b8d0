// Fleet-scale chaos (docs/fleet-serving.md, docs/faults.md): kill the shared
// primary WorkerPool mid-mission at {8, 32, 128} vehicles and check the
// fleet survives it. Three legs, all in deterministic virtual time:
//
//  1. Retry storm: 128 per-vehicle splitmix64 backoff streams; no two
//     vehicles may share a jittered retry schedule (the lockstep-resubmit
//     failure mode the backoff exists to kill).
//  2. Synthetic chaos sweep: N PoolFailoverClients tick against a primary +
//     standby pool under make_pool_chaos_schedule — a partial partition
//     opens, then the primary crashes outright, then restarts degraded.
//     Gated: every vehicle finishes its work quota, completion-time
//     inflation vs a fault-free run stays bounded, the standby absorbs at
//     least the partitioned sessions, and the post-crash retry times are
//     desynchronized across the fleet.
//  3. Integrity leg: two full MissionRunners share the primary, which dies
//     mid-mission and never returns. Both missions must complete via local
//     fallback + a committed "failover" state migration (never a torn
//     particle set), with zero wire-integrity rejects and the busy-fallback
//     accounting invariant intact.
//
// Artifacts: BENCH_fleet_chaos.json (gated by tools/check_bench_regression's
// check_fleet_chaos and the fleet-chaos CI job). Exit 0 iff every acceptance
// property holds.
//
// Usage: bench_fleet_chaos [--smoke]   (--smoke: coarser tick, same sweep)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/mission_runner.h"
#include "core/pool_failover.h"
#include "core/worker_pool.h"
#include "sim/fault_injector.h"

using namespace lgv;

namespace {

// ---- synthetic-leg model ----------------------------------------------------
constexpr double kMissionWorkS = 30.0;  ///< work-seconds each vehicle must bank
constexpr double kRemoteRate = 4.0;     ///< work-s banked per second when served
constexpr double kLocalRate = 1.0;      ///< ... when degraded to local compute
constexpr double kServiceS = 0.002;     ///< modeled pool service per request
constexpr double kSnapshotS = 0.25;     ///< modeled failover snapshot transfer
constexpr double kHorizonS = 45.0;
constexpr double kCrashAt = 5.0;   ///< partition opens at kCrashAt - 4
constexpr double kCrashS = 3.0;
constexpr double kPartitionFrac = 0.25;
constexpr double kInflationBound = 1.5;

struct ScaleResult {
  int vehicles = 0;
  int completed = 0;
  double clean_mean_s = 0.0;
  double chaos_mean_s = 0.0;
  double inflation = 0.0;
  int partitioned = 0;       ///< sessions inside the partition subset
  int standby_absorbed = 0;  ///< vehicles that ever committed to the standby
  uint64_t failovers = 0;    ///< committed pool switches (incl. failbacks)
  uint64_t breaker_opens = 0;
  uint64_t busy_bounces = 0;        ///< busy verdicts degraded to local
  uint64_t primary_crashes = 0;
  double desync_fraction = 0.0;  ///< distinct post-crash first retries / storm
};

struct Vehicle {
  core::PoolFailoverClient client;
  double progress = 0.0;
  double done_at = -1.0;
  bool ever_standby = false;
  double first_retry = -1.0;  ///< retry_at of the first post-crash backoff

  Vehicle(core::WorkerPool* primary, core::WorkerPool* standby, uint64_t seed,
          std::string label)
      : client(primary, standby, seed, std::move(label)) {}
};

/// Drive `vehicles` failover clients against primary(+standby) until every
/// mission banks kMissionWorkS or the horizon runs out. Pure virtual time;
/// with `inj` == nullptr this is the fault-free baseline run.
void run_fleet(std::vector<Vehicle>& fleet, core::WorkerPool& primary,
               double tick, const sim::FaultInjector* inj) {
  primary.set_fault_injector(inj);
  for (double now = 0.0; now < kHorizonS; now += tick) {
    if (inj != nullptr) primary.step(now);
    bool all_done = true;
    for (Vehicle& v : fleet) {
      if (v.done_at >= 0.0) continue;
      all_done = false;

      bool remote = false;
      const uint32_t streak_before = v.client.busy_streak();
      const core::PoolFailoverClient::Acquire acq = v.client.acquire(now);
      if (acq.ship_snapshot) {
        // Crash-consistent re-admission: remote execution on the new pool
        // waits for the modeled snapshot transfer to land and commit.
        v.client.snapshot_shipped(now + kSnapshotS);
      } else if (acq.pool != nullptr) {
        if (acq.needs_migration) {
          v.client.migration_committed(acq.pool_index);
          if (acq.pool_index == 1) v.ever_standby = true;
        }
        const core::WorkerVerdict verdict = acq.pool->execute(
            acq.session, core::KernelKind::kGeneric, now, kServiceS, 1);
        if (verdict.busy) {
          v.client.on_busy(now);
        } else {
          v.client.on_served();
          remote = true;
        }
      }
      if (streak_before == 0 && v.client.busy_streak() > 0 && now >= kCrashAt &&
          v.first_retry < 0.0) {
        v.first_retry = v.client.retry_at();
      }

      v.progress += tick * (remote ? kRemoteRate : kLocalRate);
      if (v.progress >= kMissionWorkS) v.done_at = now + tick;
    }
    if (all_done) break;
  }
  primary.set_fault_injector(nullptr);
}

double mean_completion(const std::vector<Vehicle>& fleet) {
  double sum = 0.0;
  int n = 0;
  for (const Vehicle& v : fleet) {
    if (v.done_at < 0.0) continue;
    sum += v.done_at;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

ScaleResult run_scale(int vehicles, double tick, uint64_t fleet_seed) {
  core::WorkerPoolConfig wc;
  wc.cores = 16;
  wc.threads = 4;
  wc.max_sessions = 512;

  auto make_fleet = [&](core::WorkerPool* primary, core::WorkerPool* standby) {
    std::vector<Vehicle> fleet;
    fleet.reserve(static_cast<size_t>(vehicles));
    for (int v = 0; v < vehicles; ++v) {
      fleet.emplace_back(primary, standby,
                         vehicle_seed(fleet_seed, static_cast<uint32_t>(v)),
                         "lgv-" + std::to_string(v));
    }
    return fleet;
  };

  // Fault-free baseline: same fleet, same pools, no schedule.
  core::WorkerPool clean_primary(wc);
  core::WorkerPool clean_standby(wc);
  std::vector<Vehicle> clean = make_fleet(&clean_primary, &clean_standby);
  run_fleet(clean, clean_primary, tick, nullptr);

  // Chaos run: partition → crash → degraded restart (every pool fault kind).
  const sim::FaultInjector inj(sim::make_pool_chaos_schedule(
      kCrashAt, kCrashS, kPartitionFrac, wc.cores / 2, 5.0));
  core::WorkerPool primary(wc);
  core::WorkerPool standby(wc);
  std::vector<Vehicle> fleet = make_fleet(&primary, &standby);

  // Establish every session before the faults bite, then note which initial
  // sessions the partition window will cut — the selective-failover cohort.
  for (Vehicle& v : fleet) (void)v.client.acquire(0.0);
  ScaleResult r;
  r.vehicles = vehicles;
  for (Vehicle& v : fleet) {
    if (inj.session_partitioned(v.client.session(0), kCrashAt - 2.0)) {
      ++r.partitioned;
    }
  }

  run_fleet(fleet, primary, tick, &inj);

  std::set<double> retries;
  int stormed = 0;
  for (const Vehicle& v : fleet) {
    if (v.done_at >= 0.0) ++r.completed;
    if (v.ever_standby) ++r.standby_absorbed;
    r.failovers += v.client.failovers();
    r.breaker_opens += v.client.breaker_opens();
    if (v.first_retry >= 0.0) {
      ++stormed;
      retries.insert(v.first_retry);
    }
  }
  r.clean_mean_s = mean_completion(clean);
  r.chaos_mean_s = mean_completion(fleet);
  r.inflation = r.clean_mean_s > 0.0 ? r.chaos_mean_s / r.clean_mean_s : 0.0;
  r.busy_bounces = primary.busy_rejects() + standby.busy_rejects();
  r.primary_crashes = primary.pool_crashes();
  r.desync_fraction =
      stormed > 0
          ? static_cast<double>(retries.size()) / static_cast<double>(stormed)
          : 0.0;
  return r;
}

// ---- integrity leg ----------------------------------------------------------
struct IntegrityResult {
  int missions = 0;
  int successes = 0;
  uint64_t pool_failovers = 0;
  uint64_t failover_migrations = 0;
  uint64_t failovers_aborted = 0;
  uint64_t frames_rejected = 0;
  uint64_t busy_fallbacks_vehicles = 0;  ///< Σ per-vehicle counters
  uint64_t busy_fallbacks_pools = 0;     ///< Σ pool aggregates
  bool accounting_invariant = false;
  double flight_recorder_dumps = 0.0;  ///< trigger=pool_failover
};

IntegrityResult run_integrity() {
  core::WorkerPoolConfig wc;
  wc.cores = 8;
  wc.threads = 4;
  core::WorkerPool primary(wc);
  core::WorkerPool standby(wc);

  // The primary dies mid-mission and never comes back.
  sim::FaultSchedule faults;
  faults.add(sim::FaultKind::kPoolCrash, 5.0, 1e6);

  auto config = [&](int index) {
    core::MissionConfig cfg;
    cfg.rollout_samples = 200;
    cfg.slam_particles = 10;
    cfg.timeout = 600.0;
    cfg.vehicle_index = index;
    cfg.worker_pool = &primary;
    cfg.standby_pool = &standby;
    cfg.faults = faults;
    return cfg;
  };
  const core::DeploymentPlan plan =
      core::offload_plan("cloud_4t", platform::Host::kCloudServer, 4,
                         core::WorkloadKind::kNavigationWithMap);
  core::MissionRunner v0(sim::make_fleet_scenario(0, 2), plan, config(0));
  core::MissionRunner v1(sim::make_fleet_scenario(1, 2), plan, config(1));
  primary.set_fault_injector(v0.runtime().fault_injector());

  v0.start();
  v1.start();
  bool r0 = true, r1 = true;
  while (r0 || r1) {
    if (r0) r0 = v0.step();
    if (r1) r1 = v1.step();
  }
  const core::MissionReport m0 = v0.finalize();
  const core::MissionReport m1 = v1.finalize();

  IntegrityResult r;
  r.missions = 2;
  r.successes = (m0.success ? 1 : 0) + (m1.success ? 1 : 0);
  r.pool_failovers = m0.pool_failovers + m1.pool_failovers;
  r.failover_migrations = v0.runtime().switcher().stats().failover_migrations +
                          v1.runtime().switcher().stats().failover_migrations;
  r.failovers_aborted =
      v0.runtime().failovers_aborted() + v1.runtime().failovers_aborted();
  r.frames_rejected = m0.network.frames_rejected + m1.network.frames_rejected;
  r.busy_fallbacks_vehicles = m0.busy_fallbacks + m1.busy_fallbacks;
  r.busy_fallbacks_pools = primary.busy_fallbacks() + standby.busy_fallbacks();
  r.accounting_invariant = r.busy_fallbacks_vehicles == r.busy_fallbacks_pools;
  if (v0.runtime().telemetry() != nullptr) {
    r.flight_recorder_dumps =
        v0.runtime()
            .telemetry()
            ->metrics()
            .counter("flight_recorder_dumps_total", {{"trigger", "pool_failover"}})
            .value();
  }
  return r;
}

void write_json(const std::vector<ScaleResult>& scales, int storm_vehicles,
                size_t distinct_schedules, const IntegrityResult& integ,
                bool smoke, bool all_complete, bool inflation_bounded,
                bool standby_absorbs, bool no_torn_state, bool desynchronized) {
  std::ofstream f("BENCH_fleet_chaos.json");
  f << "{\n  \"bench\": \"fleet_chaos\",\n";
  f << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  f << "  \"retry_storm\": {\"vehicles\": " << storm_vehicles
    << ", \"distinct_schedules\": " << distinct_schedules << "},\n";
  f << "  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleResult& r = scales[i];
    f << "    {\"vehicles\": " << r.vehicles << ", \"completed\": " << r.completed
      << ", \"clean_mean_s\": " << r.clean_mean_s
      << ", \"chaos_mean_s\": " << r.chaos_mean_s
      << ", \"inflation\": " << r.inflation
      << ", \"partitioned\": " << r.partitioned
      << ", \"standby_absorbed\": " << r.standby_absorbed
      << ", \"failovers\": " << r.failovers
      << ", \"breaker_opens\": " << r.breaker_opens
      << ", \"busy_bounces\": " << r.busy_bounces
      << ", \"primary_crashes\": " << r.primary_crashes
      << ", \"desync_fraction\": " << r.desync_fraction << "}"
      << (i + 1 < scales.size() ? ",\n" : "\n");
  }
  f << "  ],\n  \"integrity\": {\"missions\": " << integ.missions
    << ", \"successes\": " << integ.successes
    << ", \"pool_failovers\": " << integ.pool_failovers
    << ", \"failover_migrations\": " << integ.failover_migrations
    << ", \"failovers_aborted\": " << integ.failovers_aborted
    << ", \"frames_rejected\": " << integ.frames_rejected
    << ", \"accounting_invariant\": "
    << (integ.accounting_invariant ? "true" : "false")
    << ", \"flight_recorder_dumps\": " << integ.flight_recorder_dumps << "},\n";
  f << "  \"acceptance\": {\n";
  f << "    \"all_missions_complete\": " << (all_complete ? "true" : "false")
    << ",\n";
  f << "    \"inflation_bounded\": " << (inflation_bounded ? "true" : "false")
    << ",\n";
  f << "    \"standby_absorbs_partitioned\": "
    << (standby_absorbs ? "true" : "false") << ",\n";
  f << "    \"no_torn_state\": " << (no_torn_state ? "true" : "false") << ",\n";
  f << "    \"retry_storm_desynchronized\": "
    << (desynchronized ? "true" : "false") << "\n";
  f << "  }\n}\n";
  std::printf("wrote BENCH_fleet_chaos.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double tick = smoke ? 0.1 : 0.05;
  const uint64_t fleet_seed = 0xc4a05;

  bench::print_title(
      std::string("Fleet chaos: pool crash / partition / degraded restart") +
      (smoke ? " [smoke]" : ""));

  // ---- leg 1: retry storm ---------------------------------------------------
  constexpr int kStormVehicles = 128;
  constexpr uint32_t kStormAttempts = 6;
  std::set<std::vector<double>> schedules;
  for (int v = 0; v < kStormVehicles; ++v) {
    std::vector<double> sched;
    for (uint32_t a = 1; a <= kStormAttempts; ++a) {
      sched.push_back(core::busy_backoff_delay(
          vehicle_seed(fleet_seed, static_cast<uint32_t>(v)), a, 0.05, 2.0));
    }
    schedules.insert(std::move(sched));
  }
  const bool storm_distinct = schedules.size() == kStormVehicles;
  bench::print_subtitle("retry storm: jittered backoff schedules");
  std::printf("%d vehicles x %u attempts: %zu distinct schedules (%s)\n",
              kStormVehicles, kStormAttempts, schedules.size(),
              storm_distinct ? "desynchronized" : "COLLISION");

  // ---- leg 2: synthetic chaos sweep -----------------------------------------
  std::vector<ScaleResult> scales;
  for (const int vehicles : {8, 32, 128}) {
    scales.push_back(run_scale(vehicles, tick, fleet_seed));
  }
  bench::print_subtitle("pool chaos sweep (virtual time)");
  std::printf("%9s %10s %11s %11s %10s %12s %9s %10s %8s\n", "vehicles", "done",
              "clean", "chaos", "inflate", "partitioned", "standby", "failover",
              "desync");
  for (const ScaleResult& r : scales) {
    std::printf("%9d %7d/%-2d %11s %11s %9.2fx %12d %9d %10llu %7.0f%%\n",
                r.vehicles, r.completed, r.vehicles,
                bench::fmt_time(r.clean_mean_s).c_str(),
                bench::fmt_time(r.chaos_mean_s).c_str(), r.inflation,
                r.partitioned, r.standby_absorbed,
                static_cast<unsigned long long>(r.failovers),
                r.desync_fraction * 100.0);
  }

  // ---- leg 3: full-mission integrity ----------------------------------------
  bench::print_subtitle("integrity: 2 MissionRunners, primary dies at t=5");
  const IntegrityResult integ = run_integrity();
  std::printf("missions %d/%d, failovers %llu (aborted %llu), "
              "failover migrations %llu, frames rejected %llu, "
              "accounting invariant %s, flight dumps %.0f\n",
              integ.successes, integ.missions,
              static_cast<unsigned long long>(integ.pool_failovers),
              static_cast<unsigned long long>(integ.failovers_aborted),
              static_cast<unsigned long long>(integ.failover_migrations),
              static_cast<unsigned long long>(integ.frames_rejected),
              integ.accounting_invariant ? "holds" : "BROKEN",
              integ.flight_recorder_dumps);

  // ---- acceptance -----------------------------------------------------------
  bool all_complete = integ.successes == integ.missions;
  bool inflation_bounded = true;
  bool standby_absorbs = true;
  bool desynchronized = storm_distinct;
  for (const ScaleResult& r : scales) {
    all_complete &= r.completed == r.vehicles;
    inflation_bounded &= r.inflation > 0.0 && r.inflation <= kInflationBound;
    standby_absorbs &=
        r.standby_absorbed >= r.partitioned && r.standby_absorbed > 0;
    // The post-crash storm must spread: nearly every bounced vehicle retries
    // at its own jittered instant (exact collisions are astronomically rare).
    desynchronized &= r.desync_fraction >= 0.9;
  }
  const bool no_torn_state = integ.successes == integ.missions &&
                             integ.frames_rejected == 0 &&
                             integ.failover_migrations >= 1 &&
                             integ.accounting_invariant;

  bench::print_subtitle("acceptance");
  std::printf("all missions complete:               %s\n",
              all_complete ? "yes" : "NO");
  std::printf("completion inflation <= %.1fx:        %s\n", kInflationBound,
              inflation_bounded ? "yes" : "NO");
  std::printf("standby absorbs partitioned cohort:  %s\n",
              standby_absorbs ? "yes" : "NO");
  std::printf("no torn state / integrity rejects:   %s\n",
              no_torn_state ? "yes" : "NO");
  std::printf("retry storm desynchronized:          %s\n",
              desynchronized ? "yes" : "NO");

  write_json(scales, kStormVehicles, schedules.size(), integ, smoke,
             all_complete, inflation_bounded, standby_absorbs, no_torn_state,
             desynchronized);

  const bool ok = all_complete && inflation_bounded && standby_absorbs &&
                  no_torn_state && desynchronized;
  if (!ok) std::printf("\nACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}
