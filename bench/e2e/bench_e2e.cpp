// bench_e2e: whole missions and a lockstep fleet, measured on both clocks
// (README.md). Host wall-clock says how fast the simulator runs; virtual
// time is the paper's modeled result, which must not move unless a change
// says it should.
//
//   bench_e2e --workload <name> [--seed <u64>] [--seconds <s>] [--trace] [--smoke]
//
// Prints one `name value unit` line per metric ('#' lines are commentary)
// and exits 1 when any output check fails, 2 on a usage error.
//
// The timed pass runs the workload's prefix of missions, then keeps starting
// missions until --seconds of wall time have passed. --trace adds a traced
// pass (spans, tick states, allocation counts) and a telemetry-off pass over
// the same prefix, then the layer replay, and prints the per-layer metrics
// they give; spans go to bench_e2e_<workload>_trace.jsonl.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "host_probe.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

using namespace lgv;
using namespace lgv::e2e;

namespace {

void metric(const std::string& name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name.c_str(), value, unit);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Checks {
  bool ok = true;
  void expect(bool holds, const std::string& what) {
    std::printf("# check %s: %s\n", what.c_str(), holds ? "ok" : "FAILED");
    ok &= holds;
  }
};

std::string failure_label(const MissionRecord& m) {
  if (m.cause == Cause::kSignal) return "signal:" + std::to_string(m.signal);
  return cause_name(m.cause);
}

/// Σ step() wall seconds per simulated second over `records`.
double step_wall_per_vs(const std::vector<MissionRecord>& records, bool prefix_only) {
  double wall = 0.0, virt = 0.0;
  for (const MissionRecord& m : records) {
    if (prefix_only && !m.in_prefix) continue;
    wall += m.step_s;
    virt += static_cast<double>(m.steps) * kTick;
  }
  return ratio(wall, virt);
}

/// End-to-end and per-layer numbers of the timed pass.
void report_timed(const Workload& w, const PassResult& t, Checks& checks) {
  FailureTally tally;
  double virt = 0.0, pool_busy_us = 0.0;
  std::vector<double> setups, wait_p50, wait_p99;
  for (const MissionRecord& m : t.missions) {
    virt += static_cast<double>(m.steps) * kTick;
    pool_busy_us += m.pool_busy_us;
    if (m.steps > 0) setups.push_back(m.setup_s);
    if (m.pool_wait_p50_us > 0) {
      wait_p50.push_back(m.pool_wait_p50_us);
      wait_p99.push_back(m.pool_wait_p99_us);
    }
    if (!m.finished) continue;
    tally.add(m.failed() ? failure_label(m) : "");
    if (m.failed()) {
      std::printf("# mission k=%u vehicle=%d failed: %s after %.2f virtual s\n", m.k, m.vehicle,
                  failure_label(m).c_str(), m.mission_s);
    }
  }

  // ---- end to end, host clock, in reference-host time (host_probe.h).
  // Medians over windows and blocks: a burst of host noise moves one window,
  // not the run.
  const double probe_s = quantile(t.probe_s, 0.5);
  const double to_reference = ratio(kReferenceProbeS, probe_s);
  const double raw_speed = quantile(t.window_speed, 0.5);
  const std::vector<double>& ticks = t.scan_tick_ms;
  metric("sim_speed", ratio(raw_speed, to_reference), "vs/s");
  metric("scan_tick_ms_p50", block_quantile(ticks, 0.5) * to_reference, "ms");
  const double tail = reportable_percentile(std::min(ticks.size(), kBlockSamples));
  for (const double p : {90.0, 99.0}) {
    if (p > tail) break;
    metric(p == 90.0 ? "scan_tick_ms_p90" : "scan_tick_ms_p99",
           block_quantile(ticks, p / 100.0) * to_reference, "ms");
  }
  metric("setup_s", quantile(setups, 0.5) * to_reference, "s");
  // How this host compared with the reference, and sim_speed before scaling.
  metric("host.probe_us", probe_s * 1e6, "us");
  metric("sim_speed_raw", raw_speed, "vs/s");
  std::printf("# sim_speed: median of %zu windows of %s; %zu scan ticks, quantiles are "
              "medians over blocks of %zu\n",
              t.window_speed.size(), w.fleet ? "one fleet second" : "ten mission seconds",
              ticks.size(), kBlockSamples);
  metric("peak_rss_mb", quantile(t.child_rss_mb, 0.5), "MB");
  metric("fail_frac", tally.fail_frac(), "ratio");

  // ---- end to end, virtual clock (the prefix only)
  std::vector<double> mission_s, energy_j;
  double standby = 0.0, prefix_s = 0.0, fallbacks = 0.0, up_bytes = 0.0, rejected = 0.0;
  double frames = 0.0, solves = 0.0, delta_evals = 0.0, migrations = 0.0, aborted = 0.0;
  double migration_bytes = 0.0, hit_sum = 0.0, hits = 0.0, prefix_n = 0.0;
  for (const MissionRecord& m : t.missions) {
    if (!m.in_prefix) continue;
    ++prefix_n;
    if (!m.failed()) {
      mission_s.push_back(m.mission_s);
      energy_j.push_back(m.energy_j);
    }
    standby += m.standby_s;
    prefix_s += m.mission_s;
    fallbacks += static_cast<double>(m.fallbacks);
    up_bytes += m.uplink_bytes;
    frames += static_cast<double>(m.frames);
    rejected += static_cast<double>(m.frames_rejected);
    solves += static_cast<double>(m.placement_solves);
    delta_evals += static_cast<double>(m.placement_delta_evals);
    migrations += static_cast<double>(m.migrations);
    aborted += static_cast<double>(m.migrations_aborted);
    migration_bytes += m.migration_bytes;
    if (m.delta_hit_ratio >= 0.0) {
      hit_sum += m.delta_hit_ratio;
      ++hits;
    }
  }
  const FleetStats& fs = t.fleet;
  metric("mission_s_p50", quantile(mission_s, 0.5), "s");
  metric("energy_j_p50", quantile(energy_j, 0.5), "J");
  metric("standby_frac", ratio(standby, prefix_s), "ratio");
  metric("fallbacks_per_min",
         w.fleet ? ratio(static_cast<double>(fs.prefix_fallbacks), fs.prefix_vehicle_s / 60.0)
                 : ratio(fallbacks, prefix_s / 60.0),
         "1/min");

  std::printf("# missions: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  metric("missions_attempted", static_cast<double>(tally.attempted), "count");
  metric("missions_failed", static_cast<double>(tally.failed), "count");
  for (const auto& [cause, n] : tally.by_cause) {
    metric("fail." + cause, static_cast<double>(n), "count");
  }
  checks.expect(tally.failed == 0, "every mission passed its checks");
  for (const Crash& c : t.crashes) {
    std::printf("# child of mission k=%u killed by signal %d (known issue A)\n", c.k, c.signal);
  }
  metric("process.child_crashes", static_cast<double>(t.crashes.size()), "count");

  // ---- per layer, from the timed pass
  metric("net.uplink_kb_per_vs", ratio(up_bytes / 1024.0, prefix_s), "KB/vs");
  metric("net.frames_rejected_per_min", ratio(rejected, prefix_s / 60.0), "1/min");
  metric("net.frame_accept_ratio", frames > 0 ? 1.0 - rejected / frames : 1.0, "ratio");
  metric("core.placement.solves", ratio(solves, prefix_n), "count");
  metric("core.placement.delta_evals", ratio(delta_evals, prefix_n), "count");
  metric("core.migration.commits", ratio(migrations - aborted, prefix_n), "count");
  metric("core.migration.abort_ratio", ratio(aborted, migrations), "ratio");
  metric("core.migration.delta_hit_ratio", ratio(hit_sum, hits), "ratio");
  metric("core.migration.kb_per_commit", ratio(migration_bytes / 1024.0, migrations - aborted),
         "KB");
  const double requests = static_cast<double>(fs.pool_requests);
  metric("core.worker_pool.busy_frac", ratio(static_cast<double>(fs.pool_busy_rejects), requests),
         "ratio");
  metric("core.worker_pool.batched_frac", ratio(static_cast<double>(fs.pool_batched), requests),
         "ratio");
  metric("core.worker_pool.max_session_depth", static_cast<double>(fs.pool_max_session_depth),
         "count");
  metric("core.worker_pool.evictions", static_cast<double>(fs.pool_evictions), "count");
  if (w.fleet) {
    pool_busy_us = fs.pool_busy_us;
    wait_p50.assign(1, fs.pool_wait_p50_us);
    wait_p99.assign(1, fs.pool_wait_p99_us);
    checks.expect(fs.vehicle_busy_fallbacks == fs.pool_busy_fallbacks,
                  "busy fallbacks: vehicles " + std::to_string(fs.vehicle_busy_fallbacks) +
                      " == pool " + std::to_string(fs.pool_busy_fallbacks));
  }
  metric("common.thread_pool.busy_ms_per_vs", ratio(pool_busy_us / 1e3, virt), "ms/vs");
  metric("common.thread_pool.task_wait_us_p50", quantile(wait_p50, 0.5), "us");
  metric("common.thread_pool.task_wait_us_p99", quantile(wait_p99, 0.5), "us");
  metric("process.cpu_s_per_vs", ratio(t.cpu_s, virt), "s/vs");
}

/// Median self time (µs) of each span name, and µs per KB for sized spans.
struct LayerTimes {
  std::map<SpanName, std::vector<double>> self_us;
  std::map<SpanName, double> total_us;
  std::map<SpanName, double> total_kb;

  explicit LayerTimes(const std::vector<Span>& spans) {
    const std::vector<double> self = self_times_us(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      self_us[spans[i].name].push_back(self[i]);
      total_us[spans[i].name] += self[i];
      total_kb[spans[i].name] += spans[i].bytes / 1024.0;
    }
  }
  double median(SpanName n) const {
    const auto it = self_us.find(n);
    return it == self_us.end() ? 0.0 : quantile(it->second, 0.5);
  }
  double per_kb(SpanName n) const {
    const auto us = total_us.find(n);
    const auto kb = total_kb.find(n);
    return us == total_us.end() ? 0.0 : ratio(us->second, kb->second);
  }
};

void report_traced(const Workload& w, uint64_t seed, const PassResult& timed, Checks& checks) {
  const PassResult traced = run_pass(w, seed, Pass::kTraced, 0.0);
  const PassResult off = run_pass(w, seed, Pass::kTelemetryOff, 0.0);

  const uint64_t digest = virtual_digest(timed);
  std::printf("# virtual digest: timed %016llx traced %016llx telemetry-off %016llx\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(virtual_digest(traced)),
              static_cast<unsigned long long>(virtual_digest(off)));
  checks.expect(virtual_digest(traced) == digest, "traced virtual digest == timed");
  checks.expect(virtual_digest(off) == digest, "telemetry-off virtual digest == timed");

  SpanRecorder spans;
  spans.append(traced.spans);
  uint32_t next_trace = 1;
  for (const MissionRecord& m : traced.missions) next_trace = std::max(next_trace, m.k + 2);
  bench::WallTimer replay_wall;
  const ReplayStats rs = replay_layers(w, traced.ticks, next_trace, spans);
  std::printf("# passes: timed %.2f s, traced %.2f s, telemetry-off %.2f s, replay %.2f s "
              "(%zu ticks)\n",
              timed.wall_s, traced.wall_s, off.wall_s, replay_wall.seconds(), rs.ticks);
  checks.expect(dangling_parents(spans.spans()) == 0, "spans have no dangling parents");
  checks.expect(rs.graph_payload_copies == 0, "standalone graph made no payload copies");
  checks.expect(rs.frames_failed_check == 0, "replayed frames pass their CRC check");

  // Wall-clock overheads, as Σ step() per simulated second: over the same
  // prefix missions, or for the fleet over the whole timed episode.
  const double base = step_wall_per_vs(timed.missions, !w.fleet);
  metric("trace.overhead_frac", ratio(step_wall_per_vs(traced.missions, false), base) - 1.0,
         "ratio");
  metric("common.telemetry.overhead_frac",
         1.0 - ratio(step_wall_per_vs(off.missions, false), base), "ratio");

  double steps = 0.0, allocs = 0.0, alloc_bytes = 0.0;
  for (const MissionRecord& m : traced.missions) {
    steps += static_cast<double>(m.steps);
    allocs += static_cast<double>(m.allocs);
    alloc_bytes += static_cast<double>(m.alloc_bytes);
  }
  metric("core.step.allocs_per_tick", ratio(allocs, steps), "count");
  metric("core.step.alloc_kb_per_tick", ratio(alloc_bytes / 1024.0, steps), "KB");

  const LayerTimes lt(spans.spans());
  const struct {
    SpanName span;
    const char* metric;
  } layers[] = {
      {SpanName::kLidarScan, "sim.lidar.scan_us"},
      {SpanName::kAmclUpdate, "perception.amcl.update_us"},
      {SpanName::kGmappingProcess, "perception.gmapping.process_us"},
      {SpanName::kGmappingEncode, "perception.gmapping.encode_us"},
      {SpanName::kCostmapUpdate, "perception.costmap.update_us"},
      {SpanName::kRolloutCompute, "control.rollout.compute_us"},
      {SpanName::kGlobalPlan, "planning.global.plan_us"},
      {SpanName::kFrontierDetect, "planning.frontier.detect_us"},
      {SpanName::kGraphPublish, "middleware.graph.publish_us"},
      {SpanName::kPlacementSolve, "core.placement.solve_us"},
      {SpanName::kPlacementReoptimize, "core.placement.reoptimize_us"},
  };
  for (const auto& l : layers) metric(l.metric, lt.median(l.span), "us");
  metric("msg.roundtrip_us_per_kb", lt.per_kb(SpanName::kMsgRoundtrip), "us/KB");
  metric("net.frame_us_per_kb", lt.per_kb(SpanName::kNetFrame), "us/KB");

  // Step time the replayed layers do not explain, per simulated second: an
  // estimate, since the replay runs the kernels serially while the missions
  // ran them on the pool.
  double wall_ms = 0.0, virt = 0.0, layer_ms = 0.0;
  for (const MissionRecord& m : timed.missions) {
    if (!m.in_prefix) continue;
    wall_ms += m.step_s * 1e3;
    virt += static_cast<double>(m.steps) * kTick;
    const double loc = lt.median(w.exploration ? SpanName::kGmappingProcess
                                               : SpanName::kAmclUpdate);
    layer_ms += 1e-3 * (static_cast<double>(m.scan_ticks) * lt.median(SpanName::kLidarScan) +
                        static_cast<double>(m.localization_calls) * loc +
                        static_cast<double>(m.costmap_calls) *
                            lt.median(SpanName::kCostmapUpdate) +
                        static_cast<double>(m.tracking_calls) *
                            lt.median(SpanName::kRolloutCompute) +
                        static_cast<double>(m.planning_calls) * lt.median(SpanName::kGlobalPlan) +
                        static_cast<double>(m.exploration_calls) *
                            lt.median(SpanName::kFrontierDetect));
  }
  metric("core.step.self_ms_per_vs", ratio(wall_ms - layer_ms, virt), "ms/vs");

  const std::string path = "bench_e2e_" + w.name + "_trace.jsonl";
  checks.expect(write_jsonl(path, spans.spans()), "wrote " + path);
  std::printf("# %zu spans in %s\n", spans.spans().size(), path.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed <u64>] [--seconds <s>] [--trace] "
               "[--smoke]\nworkloads:",
               argv0);
  for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0x5eed;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], &end, 0);
      if (*end != '\0') return usage(argv[0]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(seconds >= 0.0)) return usage(argv[0]);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  const std::optional<Workload> w = find_workload(name, smoke);
  if (!w) return usage(argv[0]);

  std::printf("# bench_e2e workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
              smoke ? 1 : 0);
  Checks checks;
  const PassResult timed = run_pass(*w, seed, Pass::kTimed, seconds);
  report_timed(*w, timed, checks);
  if (trace) report_traced(*w, seed, timed, checks);
  std::printf("# result: %s\n", checks.ok ? "ok" : "CHECKS FAILED");
  return checks.ok ? 0 : 1;
}
