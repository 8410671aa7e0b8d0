#include "workloads.h"

#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "alloc_hook.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/worker_pool.h"
#include "fork_runner.h"
#include "host_probe.h"
#include "sim/fault_injector.h"

namespace lgv::e2e {

using bench::WallTimer;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"nav_edge", "explore_office", "fleet64",
                                                 "chaos_tier3"};
  return names;
}

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "nav_edge") {
    w.prefix_missions = 32;
  } else if (name == "explore_office") {
    w.exploration = true;
    w.prefix_missions = 3;
    w.sortie_s = 240.0;
    w.rollout_samples = 1000;
    w.slam_particles = 20;
  } else if (name == "fleet64") {
    w.fleet = true;
    w.fleet_size = 64;
    w.fleet_prefix_s = 45.0;
  } else if (name == "chaos_tier3") {
    w.prefix_missions = 24;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.prefix_missions = std::min(w.prefix_missions, 2);
    w.fleet_size = std::min(w.fleet_size, 8);
    w.fleet_prefix_s = std::min(w.fleet_prefix_s, 10.0);
  }
  return w;
}

sim::Scenario make_scenario(const Workload& w, int vehicle) {
  if (w.fleet) return sim::make_fleet_scenario(vehicle, w.fleet_size);
  if (w.exploration) return sim::make_office_scenario();
  if (w.name == "chaos_tier3") return sim::make_chaos_scenario();
  return sim::make_lab_scenario();
}

core::DeploymentPlan make_plan(const Workload& w) {
  using core::WorkloadKind;
  using platform::Host;
  if (w.fleet) {
    return core::offload_plan("cloud_4t", Host::kCloudServer, kPoolThreads,
                              WorkloadKind::kNavigationWithMap);
  }
  if (w.exploration) {
    return core::offload_plan("gateway_4t", Host::kEdgeGateway, kPoolThreads,
                              WorkloadKind::kExplorationWithoutMap, core::Goal::kEnergy);
  }
  if (w.name == "chaos_tier3") {
    core::DeploymentPlan p =
        core::three_tier_plan("tier3", kPoolThreads, WorkloadKind::kNavigationWithMap);
    p.edge_threads = kPoolThreads;
    return p;
  }
  return core::offload_plan("gateway_4t", Host::kEdgeGateway, kPoolThreads,
                            WorkloadKind::kNavigationWithMap);
}

const char* cause_name(Cause cause) {
  switch (cause) {
    case Cause::kNone: return "none";
    case Cause::kTimeout: return "timeout";
    case Cause::kBattery: return "battery";
    case Cause::kExploredArea: return "explored_area";
    case Cause::kPayloadCopies: return "payload_copies";
    case Cause::kSignal: return "signal";
    case Cause::kChildError: return "child_error";
  }
  return "?";
}

namespace {

constexpr int kMissionWindowSteps = 500;  ///< 10 virtual seconds
constexpr int kFleetWindowRounds = 50;    ///< 1 virtual second
/// Attempts per child process before its missions count as failed.
constexpr int kChildAttempts = 3;

core::MissionConfig make_config(const Workload& w, uint64_t seed, uint32_t k, int vehicle,
                                Pass pass, core::WorkerPool* pool) {
  core::MissionConfig cfg;
  cfg.seed = vehicle_seed(seed, k);
  cfg.rollout_samples = w.rollout_samples;
  cfg.slam_particles = w.slam_particles;
  cfg.telemetry.enabled = pass != Pass::kTelemetryOff;
  if (w.exploration) {
    // A sortie ends at its cap: the "mapped" test may not fire inside it, as
    // it otherwise does whenever frontiers vanish for a moment (known issue C).
    cfg.timeout = w.sortie_s;
    cfg.explore_done_grace = w.sortie_s;
  }
  if (w.fleet) {
    cfg.vehicle_index = vehicle;
    cfg.worker_pool = pool;
  }
  if (w.name == "chaos_tier3") {
    cfg.faults = sim::make_chaos_schedule(45.0, 0.2, 800.0);
    const sim::FaultSchedule wire = sim::make_corruption_schedule(1e-3, 0.05, 800.0);
    cfg.faults.events.insert(cfg.faults.events.end(), wire.events.begin(), wire.events.end());
  }
  return cfg;
}

double metric_sum(const telemetry::MetricsSnapshot& m, const std::string& name) {
  double total = 0.0;
  for (const auto& s : m.samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

/// The first series of family `name`, skipping per-session series (fleet
/// runtimes label every series with their vehicle_id).
const telemetry::MetricSample* first_series(const telemetry::MetricsSnapshot& m,
                                            const std::string& name) {
  for (const auto& s : m.samples) {
    if (s.name == name && s.key.find("session=") == std::string::npos) return &s;
  }
  return nullptr;
}

uint64_t invocations(const core::MissionReport& r, core::NodeId id) {
  const auto it = r.node_invocations.find(core::node_name(id));
  return it == r.node_invocations.end() ? 0 : static_cast<uint64_t>(it->second);
}

/// What the child running one mission (or the fleet) sends back.
struct ChildOutput {
  std::vector<MissionRecord> missions;
  std::vector<double> scan_tick_ms;
  std::vector<double> window_speed;
  std::vector<double> probe_s;
  std::vector<TickSample> ticks;
  SpanRecorder spans;
  FleetStats fleet;
  double stepped_s = 0.0;  ///< Σ step() wall time so far, every vehicle

  void write(ByteWriter& out) const {
    out.put_vector(missions);
    out.put_vector(scan_tick_ms);
    out.put_vector(window_speed);
    out.put_vector(probe_s);
    out.put_vector(ticks);
    out.put_vector(spans.spans());
    out.put(fleet);
  }
};

/// One mission runner being stepped, plus its host-clock bookkeeping.
struct Vehicle {
  std::unique_ptr<core::MissionRunner> runner;
  MissionRecord rec;
  double start_time = 0.0;
  double scan_period = 0.0;
  double last_scan = -1e9;
  bool scan_step = false;  ///< the step in flight processes a lidar scan
  uint32_t mission_span = 0;
  int window_steps = 0;    ///< sim_speed window length; 0 = the fleet's windows
  double window_wall = 0.0;
  int window_fill = 0;
};

void start_vehicle(Vehicle& v, const Workload& w, uint64_t seed, uint32_t k, int vehicle,
                   double now, Pass pass, core::WorkerPool* pool, ChildOutput& out) {
  const core::MissionConfig cfg = make_config(w, seed, k, vehicle, pass, pool);
  v = Vehicle{};
  v.rec.k = k;
  v.rec.vehicle = vehicle;
  v.start_time = now;
  v.scan_period = cfg.scan_period;
  v.window_steps = w.fleet ? 0 : kMissionWindowSteps;
  const uint32_t trace = k + 1;
  uint32_t setup_span = 0;
  if (pass == Pass::kTraced) {
    v.mission_span = out.spans.begin(SpanName::kMission, 0, trace);
    setup_span = out.spans.begin(SpanName::kMissionSetup, v.mission_span, trace);
  }
  sim::Scenario scenario = make_scenario(w, vehicle);  // input, not set-up
  WallTimer setup;
  v.runner = std::make_unique<core::MissionRunner>(std::move(scenario), make_plan(w), cfg);
  // Fleet restarts join the lockstep at the fleet's current virtual time.
  v.runner->runtime().clock().set(now);
  if (pass == Pass::kTraced) {
    v.runner->set_tick_observer([&v, &out](const core::TickState& ts) {
      if (!v.scan_step) return;
      TickSample s;
      s.k = v.rec.k;
      s.vehicle = v.rec.vehicle;
      s.t = ts.t;
      s.robot = ts.robot_pose;
      s.estimate = ts.estimated_pose;
      s.command = ts.command;
      s.velocity_cap = ts.velocity_cap;
      s.has_goal = ts.goal.has_value();
      if (ts.goal) s.goal = *ts.goal;
      out.ticks.push_back(s);
    });
  }
  v.runner->start();
  v.rec.setup_s = setup.seconds();
  if (setup_span != 0) out.spans.end(setup_span);
}

/// One step(); false once the mission is over.
bool step_vehicle(Vehicle& v, Pass pass, ChildOutput& out) {
  // Mirrors MissionRunner::step()'s own scan-period test.
  const double now = v.runner->runtime().clock().now();
  v.scan_step = now - v.last_scan >= v.scan_period - 1e-9;
  if (v.scan_step) v.last_scan = now;

  uint32_t span = 0;
  if (pass == Pass::kTraced && v.scan_step) {
    span = out.spans.begin(SpanName::kScanTick, v.mission_span, v.rec.k + 1);
  }
  const AllocCount a0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  const bool more = v.runner->step();
  const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const AllocCount a1 = alloc_count();
  if (span != 0) out.spans.end(span);

  v.rec.step_s += dt;
  out.stepped_s += dt;
  ++v.rec.steps;
  if (v.window_steps > 0) {
    v.window_wall += dt;
    if (++v.window_fill == v.window_steps) {
      out.window_speed.push_back(v.window_steps * kTick / v.window_wall);
      out.probe_s.push_back(host_probe_s());
      v.window_wall = 0.0;
      v.window_fill = 0;
    }
  }
  v.rec.allocs += a1.calls - a0.calls;
  v.rec.alloc_bytes += a1.bytes - a0.bytes;
  if (v.scan_step) {
    ++v.rec.scan_ticks;
    if (pass == Pass::kTimed) out.scan_tick_ms.push_back(dt * 1e3);
  }
  return more;
}

MissionRecord finish_vehicle(Vehicle& v, const Workload& w, ChildOutput& out) {
  const core::MissionReport r = v.runner->finalize();
  if (v.mission_span != 0) out.spans.end(v.mission_span);
  MissionRecord rec = v.rec;
  rec.mission_s = r.completion_time - v.start_time;
  rec.energy_j = r.energy.total();
  rec.standby_s = r.standby_time;
  rec.explored_m2 = r.explored_area_m2;
  rec.fallbacks = r.fallbacks;
  rec.busy_fallbacks = r.busy_fallbacks;
  rec.uplink_bytes = r.network.uplink_bytes;
  rec.downlink_bytes = r.network.downlink_bytes;
  rec.frames = r.network.uplink_messages + r.network.downlink_messages;
  rec.frames_rejected = r.network.frames_rejected;
  rec.migrations = r.network.state_migrations;
  rec.migrations_aborted = r.network.migrations_aborted;
  rec.migration_bytes = r.network.state_migration_bytes;
  if (const auto* g = first_series(r.metrics, "migration_delta_hit_ratio")) {
    rec.delta_hit_ratio = g->value;
  }
  rec.placement_solves = static_cast<uint64_t>(metric_sum(r.metrics, "placement_solves_total"));
  rec.placement_delta_evals =
      static_cast<uint64_t>(metric_sum(r.metrics, "placement_delta_evals_total"));
  rec.payload_copies = static_cast<uint64_t>(metric_sum(r.metrics, "mw_payload_copies_total"));
  rec.localization_calls = invocations(r, core::NodeId::kLocalization);
  rec.costmap_calls = invocations(r, core::NodeId::kCostmapGen);
  rec.tracking_calls = invocations(r, core::NodeId::kPathTracking);
  rec.planning_calls = invocations(r, core::NodeId::kPathPlanning);
  rec.exploration_calls = invocations(r, core::NodeId::kExploration);
  rec.pool_busy_us = metric_sum(r.metrics, "pool_busy_us_total");
  if (const auto* h = first_series(r.metrics, "pool_task_wait_us")) {
    rec.pool_wait_p50_us = h->p50;
    rec.pool_wait_p99_us = h->p99;
  }

  // An exploration sortie ends at its cap, unfinished.
  if (r.battery_state_of_charge <= 0.0) {
    rec.cause = Cause::kBattery;
  } else if (!r.success && !w.exploration) {
    rec.cause = Cause::kTimeout;
  } else if (w.exploration && r.explored_area_m2 < kMinSortieM2) {
    rec.cause = Cause::kExploredArea;
  } else if (rec.payload_copies != 0) {
    rec.cause = Cause::kPayloadCopies;
  }
  return rec;
}

void run_mission_child(const Workload& w, uint64_t seed, uint32_t k, Pass pass,
                       ChildOutput& out) {
  set_alloc_counting(pass == Pass::kTraced);
  Vehicle v;
  start_vehicle(v, w, seed, k, -1, 0.0, pass, nullptr, out);
  while (step_vehicle(v, pass, out)) {
  }
  MissionRecord rec = finish_vehicle(v, w, out);
  rec.in_prefix = static_cast<int>(k) < w.prefix_missions;
  out.missions.push_back(rec);
}

/// The fleet episode: `fleet_size` runners in lockstep on one shared
/// WorkerPool; a finished vehicle starts the next mission of the sequence.
void run_fleet_child(const Workload& w, uint64_t seed, Pass pass, double seconds,
                     ChildOutput& out) {
  set_alloc_counting(pass == Pass::kTraced);
  const auto prefix_rounds = static_cast<uint64_t>(std::llround(w.fleet_prefix_s / kTick));

  // Declared before the pool: its workers record into the bundle until the
  // pool's destructor joins them (thread_pool.h, set_telemetry).
  std::unique_ptr<telemetry::Telemetry> bundle;
  if (pass != Pass::kTelemetryOff) bundle = std::make_unique<telemetry::Telemetry>();
  SimClock clock;
  if (bundle) bundle->set_clock(&clock);
  core::WorkerPoolConfig wc;
  wc.cores = 16;
  wc.threads = kPoolThreads;
  core::WorkerPool pool(wc, bundle.get());

  // Declared after the pool: the runners, its tenants, are destroyed first.
  std::vector<Vehicle> fleet(static_cast<size_t>(w.fleet_size));
  std::vector<bool> done(fleet.size(), false);
  uint32_t next_k = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    start_vehicle(fleet[i], w, seed, next_k++, static_cast<int>(i), 0.0, pass, &pool, out);
  }

  FleetStats& fs = out.fleet;
  WallTimer wall;
  double window_start_s = 0.0;
  for (uint64_t round = 0;; ++round) {
    if (round == prefix_rounds) {
      for (const MissionRecord& m : out.missions) fs.prefix_fallbacks += m.fallbacks;
      for (size_t i = 0; i < fleet.size(); ++i) {
        if (!done[i]) fs.prefix_fallbacks += fleet[i].runner->runtime().fallback_count();
      }
      fs.prefix_vehicle_s = static_cast<double>(fleet.size()) * clock.now();
    }
    if (round >= prefix_rounds && (pass != Pass::kTimed || wall.seconds() >= seconds)) break;

    const double now = clock.now();
    for (size_t i = 0; i < fleet.size(); ++i) {
      Vehicle& v = fleet[i];
      if (done[i]) {
        start_vehicle(v, w, seed, next_k++, static_cast<int>(i), now, pass, &pool, out);
        done[i] = false;
      }
      if (!step_vehicle(v, pass, out)) {
        MissionRecord rec = finish_vehicle(v, w, out);
        rec.in_prefix = round < prefix_rounds;
        fs.vehicle_busy_fallbacks += rec.busy_fallbacks;
        out.missions.push_back(rec);
        done[i] = true;
      }
    }
    pool.evict_expired(now);
    clock.advance(kTick);
    fs.rounds = round + 1;
    if (fs.rounds % kFleetWindowRounds == 0) {
      const double vehicle_s = static_cast<double>(fleet.size() * kFleetWindowRounds) * kTick;
      out.window_speed.push_back(vehicle_s / (out.stepped_s - window_start_s));
      out.probe_s.push_back(host_probe_s());
      window_start_s = out.stepped_s;
    }
  }
  for (size_t i = 0; i < fleet.size(); ++i) {
    if (done[i]) continue;
    Vehicle& v = fleet[i];
    fs.vehicle_busy_fallbacks += v.runner->runtime().busy_fallback_count();
    if (v.mission_span != 0) out.spans.end(v.mission_span);
    v.rec.finished = false;
    out.missions.push_back(v.rec);
  }
  fs.pool_requests = pool.requests();
  fs.pool_busy_rejects = pool.busy_rejects();
  fs.pool_batched = pool.batched_requests();
  fs.pool_max_session_depth = pool.max_session_depth();
  fs.pool_evictions = pool.evictions();
  fs.pool_busy_fallbacks = pool.busy_fallbacks();
  if (bundle) {
    const telemetry::MetricsSnapshot snap = bundle->metrics().snapshot();
    fs.pool_busy_us = metric_sum(snap, "pool_busy_us_total");
    if (const auto* h = first_series(snap, "pool_task_wait_us")) {
      fs.pool_wait_p50_us = h->p50;
      fs.pool_wait_p99_us = h->p99;
    }
  }
}

void merge(PassResult& r, SpanRecorder& spans, const ChildOutcome& child) {
  r.child_rss_mb.push_back(child.max_rss_mb);
  r.cpu_s += child.cpu_s;
  ByteReader in(child.payload);
  for (const MissionRecord& m : in.get_vector<MissionRecord>()) r.missions.push_back(m);
  const auto ticks_ms = in.get_vector<double>();
  r.scan_tick_ms.insert(r.scan_tick_ms.end(), ticks_ms.begin(), ticks_ms.end());
  const auto windows = in.get_vector<double>();
  r.window_speed.insert(r.window_speed.end(), windows.begin(), windows.end());
  const auto probes = in.get_vector<double>();
  r.probe_s.insert(r.probe_s.end(), probes.begin(), probes.end());
  const auto ticks = in.get_vector<TickSample>();
  r.ticks.insert(r.ticks.end(), ticks.begin(), ticks.end());
  spans.append(in.get_vector<Span>());
  r.fleet = in.get<FleetStats>();
  if (!in.done()) throw std::runtime_error("trailing bytes in a child record");
}

/// Run one child (a mission, or the fleet episode as mission 0) and merge
/// what it reports. A child killed by a signal is run again: the crashes seen
/// are known issue A, and a mission's results depend on its seed alone, so
/// the retry reproduces exactly what the lost attempt would have reported.
/// Each crash is kept in r.crashes; a child that fails every attempt, or
/// exits non-zero, becomes a failed mission.
void run_child(PassResult& r, SpanRecorder& spans, uint32_t k, bool in_prefix,
               const std::function<void(ChildOutput&)>& body) {
  for (int attempt = 1;; ++attempt) {
    const ChildOutcome child = run_in_child([&body](ByteWriter& bytes) {
      ChildOutput out;
      body(out);
      out.write(bytes);
    });
    if (child.ok()) {
      merge(r, spans, child);
      return;
    }
    r.child_rss_mb.push_back(child.max_rss_mb);
    r.cpu_s += child.cpu_s;
    if (child.signal != 0) r.crashes.push_back({k, child.signal});
    if (child.signal == 0 || attempt == kChildAttempts) {
      MissionRecord rec;
      rec.k = k;
      rec.in_prefix = in_prefix;
      rec.cause = child.signal != 0 ? Cause::kSignal : Cause::kChildError;
      rec.signal = child.signal;
      r.missions.push_back(rec);
      return;
    }
  }
}

}  // namespace

PassResult run_pass(const Workload& w, uint64_t seed, Pass pass, double seconds) {
  PassResult r;
  SpanRecorder spans;
  WallTimer wall;
  if (w.fleet) {
    run_child(r, spans, 0, true,
              [&](ChildOutput& out) { run_fleet_child(w, seed, pass, seconds, out); });
  } else {
    for (uint32_t k = 0;; ++k) {
      const bool in_prefix = static_cast<int>(k) < w.prefix_missions;
      if (!in_prefix && (pass != Pass::kTimed || wall.seconds() >= seconds)) break;
      run_child(r, spans, k, in_prefix,
                [&](ChildOutput& out) { run_mission_child(w, seed, k, pass, out); });
    }
  }
  r.wall_s = wall.seconds();
  r.spans = spans.spans();
  return r;
}

uint64_t virtual_digest(const PassResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  for (const MissionRecord& m : r.missions) {
    if (!m.in_prefix) continue;
    for (const double x : {m.mission_s, m.energy_j, m.standby_s, m.uplink_bytes,
                           m.downlink_bytes}) {
      mix(&x, sizeof x);
    }
    for (const uint64_t x : {static_cast<uint64_t>(m.k), m.fallbacks, m.busy_fallbacks,
                             static_cast<uint64_t>(m.cause)}) {
      mix(&x, sizeof x);
    }
  }
  mix(&r.fleet.prefix_fallbacks, sizeof r.fleet.prefix_fallbacks);
  return h;
}

}  // namespace lgv::e2e
