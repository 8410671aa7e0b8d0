// Fig. 13: total energy consumption (stacked per component) and mission
// completion time, for both workloads — (a) navigation with a map and
// (b) exploration without a map — under local execution, gateway offloading
// without optimization, and gateway offloading with 8-thread parallelization.
// The headline factors the paper reports: energy ÷1.61 (nav) / ÷2.12 (expl),
// completion time ÷2.53 (nav) / ÷1.6 (expl).
//
// Artifact: BENCH_fig13_endtoend.json — per workload and deployment the
// energy components, total, completion time and success; per workload the
// local ÷ gateway_8t reduction factors and the figure's shape claims as
// booleans. Gated by tools/check_bench_regression against bench/baselines/.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/mission_runner.h"
#include "core/report_io.h"

using namespace lgv;
using core::WorkloadKind;
using platform::Host;

namespace {

/// One workload's three legs (local, gateway, gateway_8t) and the paper's
/// reduction factors for it.
struct WorkloadResult {
  const char* name;
  double paper_energy_factor;
  double paper_time_factor;
  std::vector<core::MissionReport> reports;

  const core::MissionReport& local() const { return reports[0]; }
  const core::MissionReport& best() const { return reports[2]; }
  double energy_reduction() const {
    return local().energy.total() / best().energy.total();
  }
  double time_reduction() const {
    return local().completion_time / best().completion_time;
  }
  /// Local ÷ gateway_8t motor energy.
  double motor_ratio() const { return local().energy.motor / best().energy.motor; }
  /// "Motor energy improves least": its local ÷ offloaded ratio is the
  /// smallest of the four components that scale with the mission (wireless
  /// is ~0 locally, so it has no meaningful ratio).
  bool motor_improves_least() const {
    const sim::EnergyBreakdown& l = local().energy;
    const sim::EnergyBreakdown& b = best().energy;
    const double others = std::min({l.sensor / b.sensor,
                                    l.microcontroller / b.microcontroller,
                                    l.computer / b.computer});
    return motor_ratio() < others;
  }
};

WorkloadResult run_workload(WorkloadKind kind, const char* title, const char* name,
                            double paper_energy_factor, double paper_time_factor,
                            bench::TelemetrySidecar& sidecar) {
  bench::print_subtitle(title);
  const core::Goal goal =
      kind == WorkloadKind::kExplorationWithoutMap ? core::Goal::kEnergy
                                                   : core::Goal::kCompletionTime;
  std::vector<core::DeploymentPlan> plans = {
      core::local_plan(kind),
      core::offload_plan("gateway", Host::kEdgeGateway, 1, kind, goal),
      core::offload_plan("gateway_8t", Host::kEdgeGateway, 8, kind, goal),
  };

  WorkloadResult result{name, paper_energy_factor, paper_time_factor, {}};
  std::vector<core::MissionReport>& reports = result.reports;
  for (const auto& plan : plans) {
    core::MissionConfig cfg;
    cfg.timeout = kind == WorkloadKind::kExplorationWithoutMap ? 1500.0 : 800.0;
    if (kind == WorkloadKind::kExplorationWithoutMap) {
      cfg.slam_particles = 20;  // bounded host wall-time; same shape
      cfg.rollout_samples = 1000;
    }
    // LGV_NO_TELEMETRY=1 runs the disabled (null-pointer) path — used to
    // verify that telemetry off means zero measurable overhead.
    cfg.telemetry.enabled = std::getenv("LGV_NO_TELEMETRY") == nullptr;
    core::MissionRunner runner(sim::make_lab_scenario(), plan, cfg);
    reports.push_back(runner.run());
    sidecar.add(std::string(name) + "/" + plan.name, reports.back().metrics);
    // Makespan attribution per leg: where did the mission time actually go?
    // The paper's Fig. 13 story falls out of network_s vs compute_s.
    if (telemetry::Telemetry* t = runner.runtime().telemetry()) {
      const std::string prefix = std::string("fig13_") + name + "_" + plan.name;
      const telemetry::CriticalPathResult cp = core::write_critical_path_file(
          prefix + "_critical_path.json", t->tracer(),
          reports.back().completion_time);
      std::printf("  %-12s attribution: named %.1f%% of %.1fs | network %.2fs, "
                  "compute %.2fs -> %s (%s)\n",
                  plan.name.c_str(), cp.named_fraction() * 100.0, cp.makespan_s,
                  cp.network_s, cp.compute_s,
                  cp.network_s > cp.compute_s ? "network-dominated"
                                              : "compute-dominated",
                  (prefix + "_critical_path.json").c_str());
    }
  }

  std::printf("%-12s %8s %8s %8s %8s %8s | %8s %8s %8s\n", "deployment", "motor",
              "sensor", "micro", "computer", "wireless", "total(J)", "time(s)",
              "success");
  for (const auto& r : reports) {
    std::printf("%-12s %8.1f %8.1f %8.1f %8.1f %8.2f | %8.1f %8.1f %8s\n",
                r.deployment.c_str(), r.energy.motor, r.energy.sensor,
                r.energy.microcontroller, r.energy.computer, r.energy.wireless,
                r.energy.total(), r.completion_time, r.success ? "yes" : "NO");
  }
  std::printf("energy reduction: %.2fx (paper %.2fx);  time reduction: %.2fx "
              "(paper %.2fx)\n",
              result.energy_reduction(), paper_energy_factor, result.time_reduction(),
              paper_time_factor);
  std::printf("motor energy local vs offloaded: %.1f J vs %.1f J "
              "(paper: almost no improvement on motor energy)\n",
              result.local().energy.motor, result.best().energy.motor);
  return result;
}

void write_workload_json(std::ofstream& f, const WorkloadResult& w, bool last) {
  using bench::json_bool;
  using bench::json_number;
  f << "    \"" << w.name << "\": {\n";
  f << "      \"paper_energy_reduction\": " << json_number(w.paper_energy_factor)
    << ",\n";
  f << "      \"paper_time_reduction\": " << json_number(w.paper_time_factor) << ",\n";
  f << "      \"deployments\": {\n";
  for (size_t i = 0; i < w.reports.size(); ++i) {
    const core::MissionReport& r = w.reports[i];
    f << "        \"" << r.deployment << "\": {\"motor\": " << json_number(r.energy.motor)
      << ", \"sensor\": " << json_number(r.energy.sensor)
      << ", \"microcontroller\": " << json_number(r.energy.microcontroller)
      << ", \"computer\": " << json_number(r.energy.computer)
      << ", \"wireless\": " << json_number(r.energy.wireless)
      << ", \"total_j\": " << json_number(r.energy.total())
      << ", \"completion_s\": " << json_number(r.completion_time)
      << ", \"success\": " << json_bool(r.success) << "}"
      << (i + 1 < w.reports.size() ? ",\n" : "\n");
  }
  f << "      },\n";
  f << "      \"energy_reduction\": " << json_number(w.energy_reduction()) << ",\n";
  f << "      \"time_reduction\": " << json_number(w.time_reduction()) << ",\n";
  f << "      \"motor_ratio\": " << json_number(w.motor_ratio()) << ",\n";
  f << "      \"acceptance\": {\"offload_saves_energy\": "
    << json_bool(w.energy_reduction() > 1.0)
    << ", \"offload_saves_time\": " << json_bool(w.time_reduction() > 1.0)
    << ", \"motor_improves_least\": " << json_bool(w.motor_improves_least()) << "}\n";
  f << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  bench::print_title(
      "Fig. 13 — total energy (per component) and mission completion time");
  bench::TelemetrySidecar sidecar("fig13");
  const WorkloadResult navigation =
      run_workload(WorkloadKind::kNavigationWithMap, "(a) Navigation with a map",
                   "navigation", 1.61, 2.53, sidecar);
  const WorkloadResult exploration =
      run_workload(WorkloadKind::kExplorationWithoutMap,
                   "(b) Exploration without a map", "exploration", 2.12, 1.6, sidecar);
  sidecar.write();

  const char* json_path = "BENCH_fig13_endtoend.json";
  std::ofstream f(json_path);
  f << "{\n  \"bench\": \"fig13_endtoend\",\n  \"workloads\": {\n";
  write_workload_json(f, navigation, false);
  write_workload_json(f, exploration, true);
  f << "  }\n}\n";
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);
  return 0;
}
