// Placement-search benchmark (docs/placement.md): the headline artifact for
// the multi-tier placement engine. Two measured claims, each gated by
// tools/check_bench_regression against bench/baselines:
//
//  1. Solve cost — the exact solve of make_pipeline_dag(), the only DAG the
//     runtime places (7 nodes, 2 pinned: 3^5 = 243 plans, each priced in
//     full), priced by the engine's deterministic cycle model on the vehicle
//     platform (what an adjustment epoch actually pays on the RPi).
//     Acceptance: < 10 ms modeled; a reoptimize() after a real link change
//     costs no more than the solve, and one with unchanged tables prices no
//     plans.
//
//  2. Plan quality — the Fig. 2 pipeline DAG on three three-tier scenarios
//     (healthy WLAN, constrained WLAN, congested WLAN + long WAN). The seed
//     is Algorithm 1's two-host answer (ECN nodes → cloud); `alg1_gap` is
//     how much costlier that seed is than the optimum. Acceptance: the
//     engine is never worse than the seed anywhere, and strictly better on
//     at least one scenario. The gateway wins the healthy WLAN; on the
//     constrained and congested ones the optimum is all-local (each WLAN
//     crossing pays half the RTT, more than offloading saves).
//
// Artifacts: BENCH_placement_search.json (the gated numbers). Exit status is
// the acceptance verdict, so CI's placement-bench smoke job fails loudly.
//
// Usage: bench_placement_search [--smoke]   (every leg is deterministic;
// --smoke only tags the JSON's mode)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/host_topology.h"
#include "core/placement_engine.h"
#include "platform/platform_spec.h"

using namespace lgv;
using core::HostTopology;
using core::PlacementDag;
using core::PlacementEngine;
using core::PlacementResult;

namespace {

/// Algorithm 1's two-host shape on an N-host topology: ECN nodes (the ones
/// with parallelizable cycles) on the cloud host, everything else local.
std::vector<uint8_t> alg1_seed(const PlacementEngine& engine) {
  const PlacementDag& dag = engine.dag();
  std::vector<uint8_t> seed(dag.node_count(), 0);
  const uint8_t cloud = static_cast<uint8_t>(engine.topology().host_count() - 1);
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      seed[i] = dag.pinned[i];
    } else if (dag.parallel_cycles[i] > 0.0) {
      seed[i] = cloud;
    }
  }
  return seed;
}

struct ScenarioRow {
  std::string name;
  double seed_cost_s = 0.0;
  double cost_s = 0.0;
  double alg1_gap = 0.0;  ///< seed_cost_s / cost_s - 1
  bool never_worse = false;
  bool improved = false;
};

ScenarioRow run_scenario(const std::string& name, HostTopology topology) {
  PlacementEngine engine(core::make_pipeline_dag(), std::move(topology), {});
  const PlacementResult r = engine.solve(alg1_seed(engine));
  ScenarioRow row;
  row.name = name;
  row.seed_cost_s = r.seed_cost_s;
  row.cost_s = r.cost_s;
  row.alg1_gap = r.seed_cost_s / r.cost_s - 1.0;
  row.never_worse = r.cost_s <= r.seed_cost_s + 1e-12;
  row.improved = r.improved;
  return row;
}

void write_json(size_t solve_nodes, const PlacementResult& solve,
                double reoptimize_modeled_s, uint64_t unchanged_reoptimize_plans,
                const std::vector<ScenarioRow>& scenarios, bool smoke, bool solve_ok,
                bool never_worse, bool improves_some) {
  std::ofstream f("BENCH_placement_search.json");
  f << "{\n  \"bench\": \"placement_search\",\n";
  f << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  f << "  \"solve\": {\"nodes\": " << solve_nodes
    << ", \"modeled_solve_ms\": " << solve.modeled_solve_s * 1e3
    << ", \"reoptimize_modeled_ms\": " << reoptimize_modeled_s * 1e3
    << ", \"unchanged_reoptimize_plans\": " << unchanged_reoptimize_plans
    << ", \"plans\": " << solve.plans << "},\n";
  f << "  \"scenarios\": [\n";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioRow& s = scenarios[i];
    f << "    {\"name\": \"" << s.name << "\", \"seed_cost_s\": " << s.seed_cost_s
      << ", \"cost_s\": " << s.cost_s << ", \"alg1_gap\": " << s.alg1_gap
      << ", \"never_worse\": " << (s.never_worse ? "true" : "false")
      << ", \"improved\": " << (s.improved ? "true" : "false") << "}"
      << (i + 1 < scenarios.size() ? ",\n" : "\n");
  }
  f << "  ],\n  \"acceptance\": {\n";
  f << "    \"solve_under_10ms_modeled\": " << (solve_ok ? "true" : "false") << ",\n";
  f << "    \"never_worse_than_alg1\": " << (never_worse ? "true" : "false") << ",\n";
  f << "    \"improves_some_three_tier\": " << (improves_some ? "true" : "false")
    << "\n";
  f << "  }\n}\n";
  std::printf("wrote BENCH_placement_search.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::print_title(std::string("Multi-tier placement: exact enumeration") +
                     (smoke ? " [smoke]" : ""));

  // ---- 1. modeled solve cost on the vehicle ------------------------------
  bench::print_subtitle("pipeline DAG exact solve, modeled on the vehicle (deterministic)");
  PlacementEngine pipeline(core::make_pipeline_dag(),
                           HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  const size_t solve_nodes = pipeline.dag().node_count();
  const PlacementResult solve = pipeline.solve(alg1_seed(pipeline));
  // Same tables: the incumbent stands, nothing is priced.
  const PlacementResult unchanged = pipeline.reoptimize();
  // A real link change (the WLAN degrades): the tables rebuild and the
  // re-trigger re-enumerates from the incumbent.
  pipeline.topology().observe_link(0, 1, 1.2e6, 0.04, 0.01);
  pipeline.topology().observe_link(1, 0, 1.2e6, 0.04, 0.01);
  const PlacementResult reopt = pipeline.reoptimize();
  std::printf("solve       (%zu nodes): %8.3f ms modeled  (%" PRIu64 " plans)\n",
              solve_nodes, solve.modeled_solve_s * 1e3, solve.plans);
  std::printf("reoptimize  (link moved): %7.3f ms modeled  (%" PRIu64 " plans)\n",
              reopt.modeled_solve_s * 1e3, reopt.plans);
  std::printf("reoptimize  (unchanged):  %7.3f ms modeled  (%" PRIu64 " plans)\n",
              unchanged.modeled_solve_s * 1e3, unchanged.plans);
  const bool solve_ok = solve.modeled_solve_s < 10e-3 &&
                        reopt.modeled_solve_s <= solve.modeled_solve_s &&
                        unchanged.plans == 0;

  // ---- 2. plan quality vs Algorithm 1 ------------------------------------
  bench::print_subtitle("pipeline DAG, three-tier scenarios vs Algorithm 1 seed");
  std::vector<ScenarioRow> scenarios;
  // Healthy WLAN: offloading is cheap, Algorithm 1's all-to-cloud answer is
  // already near-optimal — the engine must simply not lose to it.
  scenarios.push_back(
      run_scenario("healthy_wlan", HostTopology::three_tier(8, 48, 2.5e6, 0.005)));
  // Constrained WLAN: every edge that crosses the 80 ms WLAN pays half its
  // RTT, more than any remote tier saves in compute (and the cloud path also
  // breaches the RTT threshold); the optimum keeps everything on the vehicle.
  scenarios.push_back(
      run_scenario("constrained_wlan", HostTopology::three_tier(8, 48, 6.0e5, 0.08)));
  // Congested WLAN + long WAN: cloud RTT breaches the control deadline, and
  // the 60 ms lossy WLAN hop costs more than the gateway saves; the optimum
  // is all-local again.
  scenarios.push_back(run_scenario(
      "congested_wan", HostTopology::three_tier(8, 48, 1.0e6, 0.06, 0.05, 0.08)));
  std::printf("%18s %14s %14s %9s %8s %10s\n", "scenario", "alg1 cost", "engine cost",
              "alg1 gap", "worse?", "improved");
  bool never_worse = true;
  bool improves_some = false;
  for (const ScenarioRow& s : scenarios) {
    never_worse &= s.never_worse;
    improves_some |= s.improved;
    std::printf("%18s %13.4fs %13.4fs %8.0f%% %8s %10s\n", s.name.c_str(),
                s.seed_cost_s, s.cost_s, s.alg1_gap * 100.0,
                s.never_worse ? "no" : "YES", s.improved ? "yes" : "no");
  }

  // ---- acceptance ---------------------------------------------------------
  bench::print_subtitle("acceptance");
  std::printf("pipeline solve < 10 ms modeled:    %s (%.3f ms)\n",
              solve_ok ? "yes" : "NO", solve.modeled_solve_s * 1e3);
  std::printf("never worse than Algorithm 1:      %s\n", never_worse ? "yes" : "NO");
  std::printf("beats Algorithm 1 somewhere:       %s\n", improves_some ? "yes" : "NO");

  write_json(solve_nodes, solve, reopt.modeled_solve_s, unchanged.plans, scenarios,
             smoke, solve_ok, never_worse, improves_some);

  const bool ok = solve_ok && never_worse && improves_some;
  if (!ok) std::printf("\nACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}
