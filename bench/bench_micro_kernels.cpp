// Wall-clock microbenchmarks (google-benchmark) of the real kernels backing
// the reproduction: scan matching, costmap updates, trajectory scoring,
// message serialization and the thread pool. These measure HOST performance —
// the paper-facing numbers (Figs. 9/10) use the platform cost models instead;
// this suite exists to keep the actual implementations honest (no
// accidentally quadratic kernels) and to profile optimization work.
//
// `--wallclock-json` switches to a self-contained A/B harness that times the
// two hand-vectorized kernels (scanMatch score, trajectory-rollout scoring)
// scalar-vs-SIMD with median-of-N steady-clock runs, the two legs' runs
// interleaved, and writes
// BENCH_kernel_wallclock.json (consumed by tools/run_kernel_bench.sh and the
// CI kernel-bench job). Without the flag it is a normal google-benchmark
// binary.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "common/simd.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "control/trajectory_rollout.h"
#include "msg/messages.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "perception/likelihood_field.h"
#include "perception/scan_matcher.h"
#include "planning/grid_search.h"
#include "sim/lidar.h"
#include "sim/scenario.h"

using namespace lgv;

namespace {

struct Fixture {
  sim::Scenario scenario = sim::make_lab_scenario();
  sim::Lidar lidar{sim::LidarConfig{}, 7};
  msg::LaserScan scan;
  perception::OccupancyGrid map;
  perception::Costmap2D costmap;
  msg::PathMsg path;

  Fixture()
      : map(perception::OccupancyGrid::from_binary(scenario.world.frame(),
                                                   scenario.world.grid())),
        costmap(scenario.world.frame().origin, scenario.world.width_m(),
                scenario.world.height_m()) {
    scan = lidar.scan(scenario.world, scenario.start, 0.0);
    costmap.set_static_map(map.to_msg(0.0));
    costmap.inflate();
    for (double t = 0.0; t <= 3.0; t += 0.25) {
      path.poses.emplace_back(scenario.start.x + t, scenario.start.y + 0.3 * t, 0.2);
    }
  }
};

Fixture& fixture() {
  static Fixture fx;
  return fx;
}

void BM_ScanMatchScore(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  size_t evals = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.score(fx.map, fx.scenario.start, fx.scan, &evals));
  }
  state.SetItemsProcessed(static_cast<int64_t>(evals));
}
BENCHMARK(BM_ScanMatchScore);

void BM_ScanMatchScoreCached(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const perception::PrecomputedScan pre = perception::precompute_scan(
      fx.scan, matcher.config().beam_stride, fx.map.frame().resolution);
  size_t evals = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        matcher.score(field, fx.scenario.start, pre, &evals));
  }
  state.SetItemsProcessed(static_cast<int64_t>(evals));
}
BENCHMARK(BM_ScanMatchScoreCached);

void BM_ScanMatchRefine(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  const Pose2D perturbed{fx.scenario.start.x + 0.08, fx.scenario.start.y - 0.05,
                         fx.scenario.start.theta + 0.04};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(fx.map, perturbed, fx.scan));
  }
}
BENCHMARK(BM_ScanMatchRefine);

void BM_ScanMatchRefineCached(benchmark::State& state) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const Pose2D perturbed{fx.scenario.start.x + 0.08, fx.scenario.start.y - 0.05,
                         fx.scenario.start.theta + 0.04};
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(field, perturbed, fx.scan));
  }
}
BENCHMARK(BM_ScanMatchRefineCached);

void BM_LikelihoodFieldFullBuild(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    perception::LikelihoodField field;
    benchmark::DoNotOptimize(field.sync(fx.map));
  }
}
BENCHMARK(BM_LikelihoodFieldFullBuild);

void BM_LikelihoodFieldIncrementalSync(benchmark::State& state) {
  // One SLAM-style cycle: integrate a scan into the map, then catch the
  // field up through the changelog (the steady-state per-update cost).
  Fixture& fx = fixture();
  perception::OccupancyGrid map = fx.map;
  perception::LikelihoodField field;
  field.sync(map);
  size_t rebuilt = 0;
  for (auto _ : state) {
    map.integrate_scan(fx.scenario.start, fx.scan);
    rebuilt += field.sync(map);
  }
  state.counters["cells_rebuilt"] =
      benchmark::Counter(static_cast<double>(rebuilt),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LikelihoodFieldIncrementalSync);

void BM_CostmapUpdate(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.costmap.update(fx.scenario.start, fx.scan));
  }
}
BENCHMARK(BM_CostmapUpdate);

// The costmap's layers alone, on the lab grid (Arg 0) and the office grid
// (Arg 1): ground-truth static map plus one scan from the start pose.
struct CostmapFixture {
  msg::OccupancyGridMsg map;
  perception::Costmap2D costmap;

  explicit CostmapFixture(const sim::Scenario& s)
      : map(perception::OccupancyGrid::from_binary(s.world.frame(), s.world.grid())
                .to_msg(0.0)),
        costmap(s.world.frame().origin, s.world.width_m(), s.world.height_m()) {
    costmap.set_static_map(map);
    sim::Lidar lidar{sim::LidarConfig{}, 7};
    costmap.update(s.start, lidar.scan(s.world, s.start, 0.0));
  }
};

CostmapFixture& costmap_fixture(benchmark::State& state) {
  static CostmapFixture lab(sim::make_lab_scenario());
  static CostmapFixture office(sim::make_office_scenario());
  const bool is_lab = state.range(0) == 0;
  state.SetLabel(is_lab ? "lab" : "office");
  return is_lab ? lab : office;
}

void BM_CostmapInflate(benchmark::State& state) {
  CostmapFixture& fx = costmap_fixture(state);
  for (auto _ : state) benchmark::DoNotOptimize(fx.costmap.inflate());
}
BENCHMARK(BM_CostmapInflate)->Arg(0)->Arg(1);

void BM_CostmapSetStaticMap(benchmark::State& state) {
  CostmapFixture& fx = costmap_fixture(state);
  for (auto _ : state) {
    fx.costmap.set_static_map(fx.map);
    benchmark::DoNotOptimize(fx.costmap);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CostmapSetStaticMap)->Arg(0)->Arg(1);

/// OccupancyGrid::from_binary, the known-map seeding every navigation
/// mission starts with, on the lab world (Arg 0) and a fleet world (Arg 1).
void BM_OccupancyFromBinary(benchmark::State& state) {
  static const sim::Scenario lab = sim::make_lab_scenario();
  static const sim::Scenario fleet = sim::make_fleet_scenario(5, 64);
  const bool is_lab = state.range(0) == 0;
  state.SetLabel(is_lab ? "lab" : "fleet");
  const sim::World& world = (is_lab ? lab : fleet).world;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        perception::OccupancyGrid::from_binary(world.frame(), world.grid()));
  }
}
BENCHMARK(BM_OccupancyFromBinary)->Arg(0)->Arg(1);

/// OccupancyGrid::to_msg on the lab known map (Arg 0, two distinct log-odds
/// values) and on an office map after 300 scans integrated at the drifting
/// odometry pose (Arg 1, hundreds of distinct values).
void BM_OccupancyToMsg(benchmark::State& state) {
  static const perception::OccupancyGrid office = [] {
    const sim::Scenario s = sim::make_office_scenario();
    perception::OccupancyGrid g(s.world.frame().origin, s.world.width_m(),
                                s.world.height_m());
    for (const sim::ScanLogEntry& e : sim::record_scan_log(s, 0.4, 0.2, 300)) {
      g.integrate_scan(e.odom_pose, e.scan);
    }
    return g;
  }();
  const bool is_lab = state.range(0) == 0;
  state.SetLabel(is_lab ? "lab" : "office");
  const perception::OccupancyGrid& map = is_lab ? fixture().map : office;
  for (auto _ : state) benchmark::DoNotOptimize(map.to_msg(0.0));
}
BENCHMARK(BM_OccupancyToMsg)->Arg(0)->Arg(1);

void BM_TrajectoryRollout(benchmark::State& state) {
  Fixture& fx = fixture();
  control::RolloutConfig cfg;
  cfg.samples = static_cast<int>(state.range(0));
  control::TrajectoryRollout rollout(cfg);
  platform::ExecutionContext ctx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rollout.compute(fx.costmap, fx.path, fx.scenario.start,
                                             {0.2, 0.0}, 0.6, ctx));
    ctx.reset();
  }
}
BENCHMARK(BM_TrajectoryRollout)->Arg(200)->Arg(2000);

void BM_TrajectoryRolloutPooled(benchmark::State& state) {
  Fixture& fx = fixture();
  control::RolloutConfig cfg;
  cfg.samples = 2000;
  control::TrajectoryRollout rollout(cfg);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  platform::ExecutionContext ctx(&pool, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rollout.compute(fx.costmap, fx.path, fx.scenario.start,
                                             {0.2, 0.0}, 0.6, ctx));
    ctx.reset();
  }
}
BENCHMARK(BM_TrajectoryRolloutPooled)->Arg(2)->Arg(4);

void BM_AStarPlan(benchmark::State& state) {
  Fixture& fx = fixture();
  const CellIndex start = fx.costmap.frame().world_to_cell(fx.scenario.start.position());
  const CellIndex goal = fx.costmap.frame().world_to_cell(fx.scenario.goal.position());
  for (auto _ : state) {
    benchmark::DoNotOptimize(planning::plan_on_costmap(fx.costmap, start, goal));
  }
}
BENCHMARK(BM_AStarPlan);

void BM_GmappingUpdate(benchmark::State& state) {
  perception::GmappingConfig cfg;
  cfg.particles = static_cast<int>(state.range(0));
  const auto log = sim::record_scan_log(fixture().scenario, 0.4, 0.2, 6);
  for (auto _ : state) {
    perception::Gmapping slam(cfg, {0, 0}, 12.0, 10.0, 3);
    slam.initialize(log[0].odom_pose);
    platform::ExecutionContext ctx;
    for (const auto& e : log) {
      msg::Odometry odom;
      odom.pose = e.odom_pose;
      slam.process(odom, e.scan, ctx);
    }
    benchmark::DoNotOptimize(slam.best_pose());
  }
}
BENCHMARK(BM_GmappingUpdate)->Arg(10)->Arg(30);

void BM_SerializeLaserScan(benchmark::State& state) {
  Fixture& fx = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_to_bytes(fx.scan));
  }
}
BENCHMARK(BM_SerializeLaserScan);

void BM_DeserializeLaserScan(benchmark::State& state) {
  const auto bytes = serialize_to_bytes(fixture().scan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deserialize_from_bytes<msg::LaserScan>(bytes));
  }
}
BENCHMARK(BM_DeserializeLaserScan);

/// One lab Lidar::scan (fan ray-cast, noise, float conversion) from poses on
/// a small orbit around the start, so consecutive scans differ.
void BM_LidarScan(benchmark::State& state) {
  Fixture& fx = fixture();
  const Pose2D& start = fx.scenario.start;
  sim::Lidar lidar(sim::LidarConfig{}, 7);
  int i = 0;
  for (auto _ : state) {
    const Pose2D pose{start.x + 0.01 * (i % 7), start.y - 0.008 * (i % 5),
                      start.theta + 0.05 * (i % 9)};
    const msg::LaserScan scan = lidar.scan(fx.scenario.world, pose, 0.0);
    benchmark::DoNotOptimize(scan.ranges.data());
    ++i;
  }
}
BENCHMARK(BM_LidarScan);

/// One 81-particle AMCL update (min = max = 81) on the lab, cycling through
/// the odometry and scans of a short drive.
void BM_AmclUpdate(benchmark::State& state) {
  Fixture& fx = fixture();
  const Pose2D& start = fx.scenario.start;
  perception::AmclConfig cfg;
  cfg.min_particles = cfg.max_particles = 81;
  perception::Amcl amcl(cfg, &fx.map, 5);
  sim::Lidar lidar(sim::LidarConfig{}, 9);
  std::vector<msg::Odometry> odoms(60);
  std::vector<msg::LaserScan> scans;
  for (size_t k = 0; k < odoms.size(); ++k) {
    const double s = static_cast<double>(k);
    odoms[k].header.stamp = 0.2 * s;
    odoms[k].pose = {start.x + 0.02 * s, start.y + 0.01 * s, start.theta + 0.01 * s};
    scans.push_back(lidar.scan(fx.scenario.world, odoms[k].pose, odoms[k].header.stamp));
  }
  amcl.initialize(start);
  platform::ExecutionContext ctx;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(amcl.update(odoms[i % 60], scans[i % 60], ctx));
    ctx.reset();
    ++i;
  }
}
BENCHMARK(BM_AmclUpdate);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(256, [](size_t i) { benchmark::DoNotOptimize(i * i); });
  }
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(4);

/// One traced event in the two shapes missions record most: Arg(0) a node
/// execution span (cycles + threads, inside a trace), Arg(1) a fleet worker
/// span on a tracer stamped with a vehicle_id. Clearing every 64k events
/// keeps the tracer below its cap, so block growth is part of the cost.
void BM_TracerRecord(benchmark::State& state) {
  const bool fleet = state.range(0) == 1;
  telemetry::Tracer tracer;
  if (fleet) tracer.set_vehicle_id("lgv-17");
  tracer.begin_trace();
  const int threads = static_cast<int>(state.range(0)) + 4;
  size_t i = 0;
  for (auto _ : state) {
    const double t = static_cast<double>(i) * 1e-3;
    const uint32_t id =
        fleet ? tracer.span("worker.scan_match", "cloud_server", "lgv-17", t, 2e-4,
                            {{"queue_wait_s", t * 1e-3}, {"batched", "1"}})
              : tracer.span("localization", "edge_gateway", "localization", t, 1e-3,
                            {{"cycles", 38.0e6 + static_cast<double>(i)},
                             {"threads", threads}});
    benchmark::DoNotOptimize(id);
    if (++i % 65536 == 0) tracer.clear();
  }
}
BENCHMARK(BM_TracerRecord)->Arg(0)->Arg(1);

// ---- wall-clock A/B harness (--wallclock-json) -----------------------------

struct WallKernelResult {
  std::string name;
  int iters = 0;
  double scalar_ns = 0.0;  ///< per call
  double simd_ns = 0.0;    ///< per call
  double speedup = 0.0;
  double rel_err = 0.0;    ///< |scalar − simd| / max(1, |scalar|) of a checksum
  bool agree = false;
};

/// scanMatch score loop: scalar reference vs the staged SIMD pipeline, pinned
/// via simd::force_level. The projection contract makes the two bit-identical,
/// so the checksum must match exactly.
WallKernelResult wallclock_scan_match(int runs, int iters) {
  Fixture& fx = fixture();
  perception::ScanMatcher matcher;
  perception::LikelihoodField field;
  field.sync(fx.map);
  const perception::PrecomputedScan pre = perception::precompute_scan(
      fx.scan, matcher.config().beam_stride, fx.map.frame().resolution);
  // A small deterministic pose orbit so branch history is realistic (the
  // refine loop never scores one pose repeatedly).
  const auto pose_at = [&](int i) {
    return Pose2D{fx.scenario.start.x + 0.01 * (i % 7),
                  fx.scenario.start.y - 0.008 * (i % 5),
                  fx.scenario.start.theta + 0.005 * (i % 9)};
  };
  const auto rep = [&](simd::Level level, double* checksum) {
    simd::force_level(level);
    double sum = 0.0;
    for (int i = 0; i < iters; ++i) {
      sum += matcher.score(field, pose_at(i), pre, nullptr);
    }
    benchmark::DoNotOptimize(sum);
    *checksum = sum;
    simd::clear_forced_level();
  };
  WallKernelResult r;
  r.name = "scan_match_score";
  r.iters = iters;
  double scalar_sum = 0.0, simd_sum = 0.0;
  const auto [scalar_s, simd_s] = lgv::bench::time_interleaved_medians(
      runs, [&] { rep(simd::Level::kScalar, &scalar_sum); },
      [&] { rep(simd::detected_level(), &simd_sum); });
  r.scalar_ns = scalar_s * 1e9 / iters;
  r.simd_ns = simd_s * 1e9 / iters;
  r.speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
  r.rel_err = std::abs(scalar_sum - simd_sum) / std::max(1.0, std::abs(scalar_sum));
  r.agree = r.rel_err <= 1e-9;
  return r;
}

/// Trajectory-rollout scoring: the scalar per-candidate loop (use_simd=false)
/// vs the vectorized forward simulation. Positions agree to rounding only
/// (rotation recurrence), so the decision checksum gets an epsilon.
WallKernelResult wallclock_score_trajectory(int runs, int iters) {
  Fixture& fx = fixture();
  control::RolloutConfig scalar_cfg;
  scalar_cfg.samples = 2000;
  scalar_cfg.use_simd = false;
  control::RolloutConfig simd_cfg = scalar_cfg;
  simd_cfg.use_simd = true;
  control::TrajectoryRollout scalar_rollout(scalar_cfg), simd_rollout(simd_cfg);
  platform::ExecutionContext ctx;
  const auto rep = [&](control::TrajectoryRollout& rollout, double* checksum) {
    double sum = 0.0;
    for (int i = 0; i < iters; ++i) {
      const control::RolloutDecision d = rollout.compute(
          fx.costmap, fx.path, fx.scenario.start, {0.2, 0.0}, 0.6, ctx);
      ctx.reset();
      sum += d.stats.best_score + d.command.linear + d.command.angular;
    }
    benchmark::DoNotOptimize(sum);
    *checksum = sum;
  };
  WallKernelResult r;
  r.name = "score_trajectory";
  r.iters = iters;
  double scalar_sum = 0.0, simd_sum = 0.0;
  const auto [scalar_s, simd_s] = lgv::bench::time_interleaved_medians(
      runs, [&] { rep(scalar_rollout, &scalar_sum); }, [&] { rep(simd_rollout, &simd_sum); });
  r.scalar_ns = scalar_s * 1e9 / iters;
  r.simd_ns = simd_s * 1e9 / iters;
  r.speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
  r.rel_err = std::abs(scalar_sum - simd_sum) / std::max(1.0, std::abs(scalar_sum));
  r.agree = r.rel_err <= 1e-6;
  return r;
}

int run_wallclock_json(int runs, bool smoke) {
  lgv::bench::print_title("Kernel wall-clock: scalar vs SIMD (median of runs)");
  const simd::Level level = simd::detected_level();
  std::printf("simd level: %s, runs per leg: %d%s\n", simd::level_name(level), runs,
              smoke ? " (smoke)" : "");
  if (level == simd::Level::kScalar) {
    std::printf("no vector unit in this build/CPU; nothing to compare\n");
  }

  std::vector<WallKernelResult> results;
  results.push_back(wallclock_scan_match(runs, smoke ? 400 : 4000));
  results.push_back(wallclock_score_trajectory(runs, smoke ? 4 : 24));

  std::printf("\n%-22s %12s %12s %9s %10s %7s\n", "kernel", "scalar", "simd",
              "speedup", "rel_err", "agree");
  for (const WallKernelResult& r : results) {
    std::printf("%-22s %10.0fns %10.0fns %8.2fx %10.1e %7s\n", r.name.c_str(),
                r.scalar_ns, r.simd_ns, r.speedup, r.rel_err,
                r.agree ? "yes" : "NO");
  }

  const char* json_path = "BENCH_kernel_wallclock.json";
  {
    std::ofstream f(json_path);
    f << "{\n  \"bench\": \"kernel_wallclock\",\n";
    f << "  \"simd_level\": \"" << simd::level_name(level) << "\",\n";
    f << "  \"runs\": " << runs << ",\n";
    f << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    f << "  \"kernels\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const WallKernelResult& r = results[i];
      f << "    {\"name\": \"" << r.name << "\", \"iters\": " << r.iters
        << ", \"scalar_ns_per_call\": " << r.scalar_ns
        << ", \"simd_ns_per_call\": " << r.simd_ns
        << ", \"speedup\": " << r.speedup << ", \"rel_err\": " << r.rel_err
        << ", \"agree\": " << (r.agree ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
  }
  std::printf("\nwrote %s\n", json_path);

  bool ok = true;
  for (const WallKernelResult& r : results) ok = ok && r.agree;
  if (!ok) std::printf("SCALAR/SIMD DISAGREEMENT\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool wallclock = false, smoke = false;
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--wallclock-json") == 0) wallclock = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--wallclock-runs=", 17) == 0) {
      runs = std::max(1, std::atoi(argv[i] + 17));
    }
  }
  if (wallclock) return run_wallclock_json(runs, smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
