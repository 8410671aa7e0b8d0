// Table II: cycle breakdown of each work node (gigacycles per invocation),
// for both workload classes. The numbers come from the instrumented work
// meter after running the full pipelines on the lab scenario — the same
// measurement the paper performs at 1.6 GHz on 4 low-power cores.
//
// Artifact: BENCH_table2_cycles.json — per workload and node the paper's
// value, the measured gigacycles per invocation and the node's share of all
// cycles, plus the table's two shape claims as booleans. Gated by
// tools/check_bench_regression against bench/baselines/ (cycle-model
// numbers, so any move is a moved result).
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "bench_util.h"
#include "core/mission_runner.h"

using namespace lgv;
using core::WorkloadKind;

namespace {

struct Row {
  double measured_gc = 0.0;  // per-invocation measured
  double share = 0.0;        // fraction of the workload's total cycles
};

using Rows = std::map<std::string, Row>;
using PaperRows = std::map<std::string, double>;  // Table II value (gigacycles)

const PaperRows kNavigationPaper = {{"localization", 0.028},
                                    {"costmap_gen", 0.857},
                                    {"path_planning", 0.055},
                                    {"path_tracking", 1.385},
                                    {"velocity_mux", 0.0}};
const PaperRows kExplorationPaper = {{"localization", 3.327},
                                     {"costmap_gen", 0.685},
                                     {"path_planning", 0.052},
                                     {"exploration", 0.011},
                                     {"path_tracking", 1.207},
                                     {"velocity_mux", 0.0}};

/// Share at or above which the paper calls a node energy-critical (ECN).
constexpr double kEcnShare = 0.10;

Rows run_workload(WorkloadKind kind) {
  core::MissionConfig cfg;
  cfg.timeout = 240.0;  // enough invocations for stable means
  cfg.rollout_samples = 2000;
  cfg.slam_particles = 30;
  // Run offloaded with acceleration so the mission makes progress quickly;
  // cycle counts are platform-independent work, unaffected by placement.
  core::MissionRunner runner(
      sim::make_lab_scenario(),
      core::offload_plan("meter", platform::Host::kEdgeGateway, 8, kind,
                         core::Goal::kEnergy),
      cfg);
  const core::MissionReport r = runner.run();

  Rows rows;
  double total = 0.0;
  for (const auto& [name, cycles] : r.node_cycles) total += cycles;
  for (const auto& [name, cycles] : r.node_cycles) {
    Row row;
    const size_t inv = r.node_invocations.at(name);
    row.measured_gc = inv > 0 ? cycles / 1e9 / static_cast<double>(inv) : 0.0;
    row.share = total > 0 ? cycles / total : 0.0;
    rows[name] = row;
  }
  return rows;
}

Row row_of(const Rows& rows, const std::string& name) {
  const auto it = rows.find(name);
  return it == rows.end() ? Row{} : it->second;
}

void print_table(const char* title, const Rows& rows, const PaperRows& paper) {
  bench::print_subtitle(title);
  std::printf("%-16s %14s %14s %10s\n", "node", "paper Gc/inv", "measured Gc/inv",
              "share");
  for (const auto& [name, gc] : paper) {
    const Row row = row_of(rows, name);
    std::printf("%-16s %14.3f %14.3f %9.1f%%\n", name.c_str(), gc, row.measured_gc,
                100.0 * row.share);
  }
}

/// Nodes at or above the ECN share, by name.
std::set<std::string> ecn_set(const Rows& rows) {
  std::set<std::string> ecns;
  for (const auto& [name, row] : rows) {
    if (row.share >= kEcnShare) ecns.insert(name);
  }
  return ecns;
}

std::string join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

void write_workload_json(std::ofstream& f, const char* name, const Rows& rows,
                         const PaperRows& paper, bool last) {
  f << "    \"" << name << "\": {\n";
  size_t i = 0;
  for (const auto& [node, gc] : paper) {
    const Row row = row_of(rows, node);
    f << "      \"" << node << "\": {\"paper_gc\": " << bench::json_number(gc)
      << ", \"gc_per_invocation\": " << bench::json_number(row.measured_gc)
      << ", \"share\": " << bench::json_number(row.share) << "}"
      << (++i < paper.size() ? ",\n" : "\n");
  }
  f << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  bench::print_title("Table II — Cycle breakdown of each work node (gigacycles)");
  std::printf("(paper values measured at 1.6 GHz / 4 low-power cores; ours are\n"
              " instrumented work counts — shape and ordering are the target)\n");

  const Rows navigation = run_workload(WorkloadKind::kNavigationWithMap);
  print_table("With a map (Navigation)", navigation, kNavigationPaper);
  const Rows exploration = run_workload(WorkloadKind::kExplorationWithoutMap);
  print_table("Without a map (Exploration)", exploration, kExplorationPaper);

  // The table's two shape claims: SLAM is the largest node without a map, and
  // the >=10% nodes are CostmapGen + Path Tracking, plus SLAM without a map.
  const double slam_share = row_of(exploration, "localization").share;
  bool slam_largest = true;
  for (const auto& [name, row] : exploration) {
    if (name != "localization" && row.share >= slam_share) slam_largest = false;
  }
  const std::set<std::string> nav_ecns = ecn_set(navigation);
  const std::set<std::string> expl_ecns = ecn_set(exploration);
  const bool ecn_match =
      nav_ecns == std::set<std::string>{"costmap_gen", "path_tracking"} &&
      expl_ecns == std::set<std::string>{"costmap_gen", "localization", "path_tracking"};

  std::printf("\nEnergy-critical nodes (>=10%% share): with a map {%s}; without a "
              "map {%s}\n",
              join(nav_ecns).c_str(), join(expl_ecns).c_str());
  std::printf("paper: CostmapGen + Path Tracking, plus SLAM without a map -> %s\n",
              ecn_match ? "matches" : "DIFFERS");
  std::printf("SLAM is the largest node without a map (paper: yes): %s\n",
              slam_largest ? "yes" : "NO");

  const char* json_path = "BENCH_table2_cycles.json";
  std::ofstream f(json_path);
  f << "{\n  \"bench\": \"table2_cycles\",\n  \"workloads\": {\n";
  write_workload_json(f, "navigation", navigation, kNavigationPaper, false);
  write_workload_json(f, "exploration", exploration, kExplorationPaper, true);
  f << "  },\n  \"acceptance\": {\n";
  f << "    \"slam_largest_without_map\": " << bench::json_bool(slam_largest) << ",\n";
  f << "    \"ecn_set_matches_paper\": " << bench::json_bool(ecn_match) << "\n";
  f << "  }\n}\n";
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);
  return 0;
}
