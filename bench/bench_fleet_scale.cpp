// Fleet-scale serving (docs/fleet-serving.md): one shared core::WorkerPool,
// N simulated LGVs. Sweeps vehicle count × worker cores and reports, per
// configuration, the offload latency distribution (p50/p99 of queue wait +
// service in virtual time), the fallback rate (busy verdicts → the vehicle
// runs the kernel locally this tick), aggregate served throughput, batching
// coalescing, and the bounded-queueing acceptance numbers.
//
// Vehicles act as asynchronous request generators against the pool: every
// virtual tick each vehicle submits its two VDP kernels — a REAL scanMatch
// (ScanMatcher::score over a LikelihoodField of the fleet hall, the PR 6
// SoA/SIMD path) and a real trajectory-rollout integration — via
// submit_block, and the pool coalesces same-kernel requests across vehicles
// into one combined dispatch at flush. Timing is virtual (deterministic,
// machine-portable): service = measured cycles × the cloud platform's
// per-cycle rate at the request's thread width.
//
// The acceptance shape this bench gates (tools/check_bench_regression):
//  - under overload (128 vehicles on 4 cores) the fallback rate rises while
//    every session's queue depth stays ≤ the configured bound — backpressure
//    degrades vehicles to local compute instead of growing queues;
//  - uncontended configs serve with near-zero fallback;
//  - cross-vehicle batching actually coalesces (batched fraction > 0);
//  - fair-share: no vehicle's mean queue wait is a large multiple of
//    another's in the contended config (stride scheduling, equal weights).
//
// Artifacts: BENCH_fleet_scale.json (the gated numbers),
// BENCH_fleet_scale_telemetry.json (per-config registry snapshots), and
// BENCH_fleet_scale_critical_path.json (critical-path attribution of the
// most contended config's trace).
//
// Usage: bench_fleet_scale [--smoke]   (--smoke: fewer ticks, same sweep)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "core/report_io.h"
#include "core/worker_pool.h"
#include "perception/likelihood_field.h"
#include "perception/occupancy_grid.h"
#include "perception/scan_matcher.h"
#include "platform/calibration.h"
#include "platform/platform_spec.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace lgv;
namespace calib = platform::calib;

namespace {

constexpr double kTick = 0.1;          ///< virtual seconds between submit rounds
constexpr int kScanCandidates = 16;    ///< poses scored per scanMatch request
constexpr int kRolloutCandidates = 24; ///< trajectories per rollout request
constexpr int kRolloutSteps = 12;
constexpr int kRequestThreads = 2;     ///< cores a request occupies while served

struct VehicleState {
  core::SessionId session = 0;
  Pose2D pose;
  perception::PrecomputedScan pre;
  uint64_t offloads = 0;
  uint64_t fallbacks = 0;
  double wait_sum = 0.0;  ///< queue-wait seconds over completed offloads
};

struct ConfigResult {
  int vehicles = 0;
  int cores = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double fallback_rate = 0.0;
  double throughput_rps = 0.0;  ///< served requests per virtual second
  uint64_t offloads = 0;
  uint64_t fallbacks = 0;
  size_t max_session_depth = 0;
  double batched_fraction = 0.0;
  uint64_t evictions = 0;
  double fairness_ratio = 0.0;  ///< max per-vehicle mean queue wait / fleet avg
  bool queue_bounded = false;
};

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = p * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Cloud-platform seconds per cycle for a request spread over `threads`
/// cores (caller-side pricing for WorkerPool::submit_block).
double seconds_per_cycle(int threads) {
  const platform::PlatformSpec spec = platform::cloud_server_spec();
  return 1.0 / (spec.single_thread_ops_per_sec() * spec.parallel_throughput(threads));
}

ConfigResult run_config(int vehicles, int cores, int ticks,
                        const perception::LikelihoodField& field,
                        const perception::ScanMatcher& matcher,
                        const sim::World& world, uint64_t fleet_seed,
                        bench::TelemetrySidecar* sidecar,
                        telemetry::Telemetry** telemetry_out) {
  SimClock clock;
  // Declared before the pool: its workers record into the bundle until the
  // pool's destructor joins them (thread_pool.h, set_telemetry).
  auto telemetry = std::make_unique<telemetry::Telemetry>(telemetry::TelemetryConfig{});
  telemetry->set_clock(&clock);

  core::WorkerPoolConfig wc;
  wc.cores = cores;
  // Real pool threads capped: the *virtual* core count is the model; the real
  // threads only need enough concurrency to genuinely exercise the batching.
  wc.threads = std::min(cores, 8);
  core::WorkerPool pool(wc, telemetry.get());

  // Vehicles: each on its own lane of the shared hall, each with its own
  // splitmix64-derived RNG stream and its own real scan of the hall.
  std::vector<VehicleState> fleet(static_cast<size_t>(vehicles));
  const double resolution = world.frame().resolution;
  for (int v = 0; v < vehicles; ++v) {
    VehicleState& s = fleet[static_cast<size_t>(v)];
    const sim::Scenario sc = sim::make_fleet_scenario(v, vehicles);
    s.pose = sc.start;
    sim::Lidar lidar({}, vehicle_seed(fleet_seed, static_cast<uint32_t>(v)) ^ 0x11d);
    const msg::LaserScan scan = lidar.scan(world, s.pose, 0.0);
    s.pre = perception::precompute_scan(scan, matcher.config().beam_stride, resolution);
    const core::Admission a =
        pool.open_session("lgv-" + std::to_string(v), clock.now());
    s.session = a.session;
  }

  const double spc = seconds_per_cycle(kRequestThreads);
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(vehicles * ticks * 2));
  uint64_t offloads = 0;
  uint64_t fallbacks = 0;

  for (int tick = 0; tick < ticks; ++tick) {
    const double now = clock.now();
    struct Issued {
      size_t vehicle;
      core::WorkerPool::Ticket ticket;
    };
    std::vector<Issued> issued;
    issued.reserve(static_cast<size_t>(vehicles) * 2);

    for (size_t v = 0; v < fleet.size(); ++v) {
      VehicleState& s = fleet[v];
      const perception::PrecomputedScan* pre = &s.pre;
      const Pose2D pose = s.pose;

      // scanMatch: score kScanCandidates perturbed poses against the field.
      auto scan_block = [&matcher, &field, pre, pose](size_t begin,
                                                      size_t end) -> double {
        size_t evals = 0;
        for (size_t i = begin; i < end; ++i) {
          const double dx = 0.04 * static_cast<double>(i % 5) - 0.08;
          const double dy = 0.04 * static_cast<double>((i / 5) % 5) - 0.08;
          const double dth = 0.02 * static_cast<double>(i % 3) - 0.02;
          const Pose2D cand(pose.x + dx, pose.y + dy, pose.theta + dth);
          matcher.score(field, cand, *pre, &evals);
        }
        return static_cast<double>(evals) * calib::kScanMatchCyclesPerBeamEval;
      };
      const auto t1 =
          pool.submit_block(s.session, core::KernelKind::kScanMatch, now,
                            kScanCandidates, scan_block, spc, kRequestThreads);
      issued.push_back({v, t1});

      // scoreTrajectory: really integrate candidate unicycle trajectories and
      // charge the rollout calibration per step.
      auto rollout_block = [pose](size_t begin, size_t end) -> double {
        double sink = 0.0;
        size_t steps = 0;
        for (size_t i = begin; i < end; ++i) {
          double x = pose.x, y = pose.y, th = pose.theta;
          const double v_cmd = 0.05 + 0.01 * static_cast<double>(i % 8);
          const double w_cmd = 0.1 * static_cast<double>(i % 5) - 0.2;
          for (int k = 0; k < kRolloutSteps; ++k) {
            th += w_cmd * 0.1;
            x += v_cmd * 0.1 * std::cos(th);
            y += v_cmd * 0.1 * std::sin(th);
            ++steps;
          }
          sink += x + y;
        }
        // Keep the integration honest against the optimizer.
        if (sink == 1e308) std::abort();
        return static_cast<double>(steps) * calib::kRolloutCyclesPerStep +
               static_cast<double>(end - begin) * calib::kRolloutCyclesPerTrajectory;
      };
      const auto t2 =
          pool.submit_block(s.session, core::KernelKind::kScoreTrajectory, now,
                            kRolloutCandidates, rollout_block, spc, kRequestThreads);
      issued.push_back({v, t2});
    }

    // Close the tick's batching window: coalesced real dispatches, then the
    // fair-share virtual schedule.
    pool.flush(now);

    for (const Issued& is : issued) {
      VehicleState& s = fleet[is.vehicle];
      const core::WorkerVerdict verdict = pool.verdict(is.ticket);
      if (verdict.busy) {
        ++fallbacks;
        ++s.fallbacks;
      } else {
        ++offloads;
        ++s.offloads;
        s.wait_sum += verdict.queue_wait;
        latencies.push_back(verdict.queue_wait + verdict.service);
      }
    }
    pool.evict_expired(now);
    clock.advance(kTick);
  }

  ConfigResult r;
  r.vehicles = vehicles;
  r.cores = cores;
  r.p50_s = percentile(latencies, 0.50);
  r.p99_s = percentile(latencies, 0.99);
  r.offloads = offloads;
  r.fallbacks = fallbacks;
  r.fallback_rate = offloads + fallbacks > 0
                        ? static_cast<double>(fallbacks) /
                              static_cast<double>(offloads + fallbacks)
                        : 0.0;
  r.throughput_rps = static_cast<double>(offloads) / (kTick * ticks);
  r.max_session_depth = pool.max_session_depth();
  r.batched_fraction =
      pool.requests() > 0
          ? static_cast<double>(pool.batched_requests()) /
                static_cast<double>(pool.requests())
          : 0.0;
  r.evictions = pool.evictions();
  r.queue_bounded = pool.max_session_depth() <= pool.config().max_session_queue;

  // Starvation metric: the worst vehicle's mean queue wait as a multiple of
  // the fleet average. Max/min would be dominated by deterministic tie-break
  // order (someone must go first within a tick); max/avg only moves when one
  // session genuinely lags the fleet.
  double max_wait = 0.0, wait_total = 0.0;
  size_t served_vehicles = 0;
  for (const VehicleState& s : fleet) {
    if (s.offloads == 0) continue;
    const double mean = s.wait_sum / static_cast<double>(s.offloads);
    max_wait = std::max(max_wait, mean);
    wait_total += mean;
    ++served_vehicles;
  }
  const double avg_wait =
      served_vehicles > 0 ? wait_total / static_cast<double>(served_vehicles) : 0.0;
  r.fairness_ratio = avg_wait > 1e-9 ? max_wait / avg_wait : 1.0;

  const std::string label =
      "v" + std::to_string(vehicles) + "_c" + std::to_string(cores);
  if (sidecar != nullptr) sidecar->add(label, telemetry->metrics().snapshot());
  if (telemetry_out != nullptr) {
    *telemetry_out = telemetry.release();  // caller owns (critical-path extraction)
  }
  return r;
}

void write_json(const std::vector<ConfigResult>& results, bool smoke,
                bool batching_observed, bool fallback_rises, bool all_bounded,
                bool fair) {
  std::ofstream f("BENCH_fleet_scale.json");
  f << "{\n  \"bench\": \"fleet_scale\",\n";
  f << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  f << "  \"configs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    f << "    {\"vehicles\": " << r.vehicles << ", \"cores\": " << r.cores
      << ", \"p50_s\": " << r.p50_s << ", \"p99_s\": " << r.p99_s
      << ", \"fallback_rate\": " << r.fallback_rate
      << ", \"throughput_rps\": " << r.throughput_rps
      << ", \"offloads\": " << r.offloads << ", \"fallbacks\": " << r.fallbacks
      << ", \"max_session_depth\": " << r.max_session_depth
      << ", \"batched_fraction\": " << r.batched_fraction
      << ", \"fairness_ratio\": " << r.fairness_ratio
      << ", \"queue_bounded\": " << (r.queue_bounded ? "true" : "false") << "}"
      << (i + 1 < results.size() ? ",\n" : "\n");
  }
  f << "  ],\n  \"acceptance\": {\n";
  f << "    \"queue_bounded\": " << (all_bounded ? "true" : "false") << ",\n";
  f << "    \"fallback_rises_under_overload\": " << (fallback_rises ? "true" : "false")
    << ",\n";
  f << "    \"batching_observed\": " << (batching_observed ? "true" : "false")
    << ",\n";
  f << "    \"fair_share\": " << (fair ? "true" : "false") << "\n";
  f << "  }\n}\n";
  std::printf("wrote BENCH_fleet_scale.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int ticks = smoke ? 80 : 250;
  const uint64_t fleet_seed = 0x5eed;

  bench::print_title(
      std::string("Fleet-scale serving: shared worker pool, N vehicles") +
      (smoke ? " [smoke]" : ""));

  // Shared hall map → likelihood field, built once (every vehicle matches
  // against the same warehouse).
  const sim::Scenario base = sim::make_fleet_scenario(0, 1);
  perception::OccupancyGridConfig map_cfg;
  map_cfg.resolution = base.world.frame().resolution;
  const perception::OccupancyGrid map = perception::OccupancyGrid::from_binary(
      base.world.frame(), base.world.grid(), map_cfg);
  perception::LikelihoodField field;
  field.sync(map);
  const perception::ScanMatcher matcher;

  const std::vector<int> vehicle_counts = {1, 8, 32, 128};
  const std::vector<int> core_counts = {4, 16};

  bench::TelemetrySidecar sidecar("fleet_scale");
  std::vector<ConfigResult> results;
  telemetry::Telemetry* contended_telemetry = nullptr;
  double contended_makespan = 0.0;

  for (const int cores : core_counts) {
    for (const int vehicles : vehicle_counts) {
      const bool most_contended =
          vehicles == vehicle_counts.back() && cores == core_counts.front();
      telemetry::Telemetry* captured = nullptr;
      results.push_back(run_config(
          vehicles, cores, ticks, field, matcher, base.world, fleet_seed,
          &sidecar, most_contended ? &captured : nullptr));
      if (captured != nullptr) {
        delete contended_telemetry;
        contended_telemetry = captured;
        contended_makespan = kTick * ticks;
      }
    }
  }

  bench::print_subtitle("offload latency / fallback / throughput (virtual time)");
  std::printf("%10s %7s %10s %10s %10s %12s %8s %8s %9s\n", "vehicles", "cores",
              "p50", "p99", "fallback", "throughput", "depth", "batched", "fair");
  for (const ConfigResult& r : results) {
    std::printf("%10d %7d %10s %10s %9.1f%% %9.1f r/s %8zu %7.0f%% %9.2f\n",
                r.vehicles, r.cores, bench::fmt_time(r.p50_s).c_str(),
                bench::fmt_time(r.p99_s).c_str(), r.fallback_rate * 100.0,
                r.throughput_rps, r.max_session_depth, r.batched_fraction * 100.0,
                r.fairness_ratio);
  }

  // ---- acceptance ----------------------------------------------------------
  bool all_bounded = true;
  bool batching_observed = false;
  bool fair = true;
  const ConfigResult* overloaded = nullptr;   // most vehicles, fewest cores
  const ConfigResult* uncontended = nullptr;  // fewest vehicles, most cores
  for (const ConfigResult& r : results) {
    all_bounded &= r.queue_bounded;
    if (r.vehicles > 1) batching_observed |= r.batched_fraction > 0.0;
    // Fair-share: in multi-vehicle configs, no vehicle's mean wait is a
    // large multiple of the fleet average (stride scheduling, equal weights).
    if (r.vehicles >= 32 && r.fairness_ratio > 4.0) fair = false;
    if (r.vehicles == 128 && r.cores == 4) overloaded = &r;
    if (r.vehicles == 1 && r.cores == 16) uncontended = &r;
  }
  const bool fallback_rises = overloaded != nullptr && uncontended != nullptr &&
                              overloaded->fallback_rate > 0.10 &&
                              uncontended->fallback_rate < 0.01;

  bench::print_subtitle("acceptance");
  std::printf("queue depth bounded everywhere:      %s\n", all_bounded ? "yes" : "NO");
  std::printf("fallback rises under overload:       %s\n", fallback_rises ? "yes" : "NO");
  std::printf("cross-vehicle batching observed:     %s\n",
              batching_observed ? "yes" : "NO");
  std::printf("fair-share holds under contention:   %s\n", fair ? "yes" : "NO");

  write_json(results, smoke, batching_observed, fallback_rises, all_bounded, fair);
  sidecar.write();

  if (contended_telemetry != nullptr) {
    const telemetry::CriticalPathResult cp = core::write_critical_path_file(
        "BENCH_fleet_scale_critical_path.json", contended_telemetry->tracer(),
        contended_makespan);
    std::printf("critical path sidecar: BENCH_fleet_scale_critical_path.json "
                "(%llu spans, %.0f%% attributed)\n",
                static_cast<unsigned long long>(cp.spans_total),
                cp.named_fraction() * 100.0);
    delete contended_telemetry;
  }

  const bool ok = all_bounded && fallback_rises && batching_observed && fair;
  if (!ok) std::printf("\nACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}
