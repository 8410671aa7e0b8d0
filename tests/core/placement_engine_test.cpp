#include "core/placement_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/host_topology.h"
#include "core/offload_runtime.h"

namespace lgv::core {
namespace {

using platform::Host;

// Deterministic uniform draws for the test harness.
struct TestRng {
  uint64_t state;
  explicit TestRng(uint64_t seed) : state(seed) {}
  double next01() {
    state = splitmix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  uint32_t index(uint32_t n) { return static_cast<uint32_t>(next01() * n) % n; }
};

// Layered random DAG: edges always point at later nodes, degree stays small
// (the shape of a processing pipeline).
PlacementDag random_dag(TestRng& rng, size_t nodes, size_t edges_per_node) {
  PlacementDag d;
  for (size_t i = 0; i < nodes; ++i) {
    // Pin ~1/8 of nodes to a host (sensors/actuators that cannot move).
    const uint8_t pin =
        rng.next01() < 0.125 ? static_cast<uint8_t>(rng.index(2)) : PlacementDag::kFreeHost;
    std::string name = "n";
    name += std::to_string(i);
    d.add_node(std::move(name), 1e5 + rng.next01() * 5e6,
               rng.next01() < 0.3 ? rng.next01() * 3e7 : 0.0, pin);
  }
  for (size_t i = 1; i < nodes; ++i) {
    for (size_t e = 0; e < edges_per_node; ++e) {
      const int src = static_cast<int>(rng.index(static_cast<uint32_t>(i)));
      d.add_edge(src, static_cast<int>(i), 32.0 + rng.next01() * 8192.0,
                 0.5 + rng.next01() * 9.5);
    }
  }
  return d;
}

HostTopology random_topology(TestRng& rng) {
  HostTopology t;
  t.add_host({"lgv", Host::kLgv, 1});
  const int hosts = 2 + static_cast<int>(rng.index(3));  // 2..4 total
  for (int i = 1; i < hosts; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    t.add_host({std::move(name),
                rng.next01() < 0.5 ? Host::kEdgeGateway : Host::kCloudServer,
                1 + static_cast<int>(rng.index(24))});
  }
  for (int s = 0; s < hosts; ++s) {
    for (int d = 0; d < hosts; ++d) {
      if (s == d) continue;
      // Bandwidth chosen low enough that some placements saturate links, so
      // the capacity penalty term is genuinely exercised.
      t.set_link(s, d,
                 {1e4 + rng.next01() * 5e6, rng.next01() * 0.2, rng.next01() * 0.3});
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// HostTopology

TEST(HostTopology, ThreeTierFactoryShape) {
  const HostTopology t = HostTopology::three_tier(8, 48, 2.5e6, 0.005);
  ASSERT_EQ(t.host_count(), 3);
  EXPECT_EQ(t.host(0).kind, Host::kLgv);
  EXPECT_EQ(t.index_of(Host::kEdgeGateway), 1);
  EXPECT_EQ(t.index_of(Host::kCloudServer), 2);
  // Self links are free; vehicle → cloud stacks the WLAN and WAN latencies.
  EXPECT_TRUE(std::isinf(t.link(0, 0).bandwidth_bps));
  EXPECT_DOUBLE_EQ(t.link(0, 1).rtt_s, 0.005);
  EXPECT_GT(t.link(0, 2).rtt_s, t.link(0, 1).rtt_s);
  EXPECT_DOUBLE_EQ(t.link(0, 2).bandwidth_bps, t.link(0, 1).bandwidth_bps);
}

TEST(HostTopology, ObserveLinkBumpsGenerationOnlyOnMaterialChange) {
  HostTopology t = HostTopology::three_tier(8, 48, 2.5e6, 0.005);
  const uint64_t gen = t.generation();
  // Identical numbers: free, no invalidation.
  t.observe_link(0, 1, 2.5e6, 0.005, 0.0);
  EXPECT_EQ(t.generation(), gen);
  // Sub-epsilon wiggle: still the same number.
  t.observe_link(0, 1, 2.5e6 * (1.0 + 1e-9), 0.005, 0.0);
  EXPECT_EQ(t.generation(), gen);
  // A real change moves the stamp.
  t.observe_link(0, 1, 1.0e6, 0.009, 0.0);
  EXPECT_GT(t.generation(), gen);
}

// ---------------------------------------------------------------------------
// Cost tables + generation stamping

TEST(PlacementEngine, TablesRebuildOnlyWhenGenerationsMove) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  const uint64_t built = engine.table_rebuilds();
  EXPECT_GE(built, 1u);
  // Nothing changed: refresh is free.
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built);
  // Unchanged observation: still free.
  engine.topology().observe_link(0, 1, 2.5e6, 0.005, 0.0);
  EXPECT_FALSE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built);
  // Material link change: one rebuild.
  engine.topology().observe_link(0, 1, 1.2e6, 0.04, 0.01);
  EXPECT_TRUE(engine.refresh_tables());
  EXPECT_EQ(engine.table_rebuilds(), built + 1);
}

// End to end: repeated adjustment steps with unchanged profiles perform zero
// cost-table rebuilds.
TEST(PlacementEngine, UnchangedProfilesRebuildNothing) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  ASSERT_NE(rt.placement_engine(), nullptr);
  rt.profiler().record_rtt(0.0, 0.006);
  rt.apply_initial_placement();
  const uint64_t built = rt.placement_engine()->table_rebuilds();
  // Feed the identical RTT every epoch: the model sees the same numbers, the
  // topology generation holds, and re-optimization re-prices nothing.
  for (int i = 0; i < 5; ++i) {
    rt.profiler().record_rtt(10.0 + i, 10.006 + i);
    rt.reoptimize_placement("test_epoch");
  }
  EXPECT_EQ(rt.placement_engine()->table_rebuilds(), built);
}

// ---------------------------------------------------------------------------
// Search

std::vector<uint8_t> two_host_seed(const PlacementEngine& engine) {
  // Algorithm 1's shape: ECN-ish parallel nodes remote, rest local.
  const PlacementDag& dag = engine.dag();
  std::vector<uint8_t> seed(dag.node_count(), 0);
  const uint8_t remote =
      static_cast<uint8_t>(engine.topology().host_count() - 1);
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      seed[i] = dag.pinned[i];
    } else if (dag.parallel_cycles[i] > 0.0) {
      seed[i] = remote;
    }
  }
  return seed;
}

/// Minimum of full_cost over every assignment of the free nodes (pinned nodes
/// keep `a`'s host): the reference the exact solver must match.
double brute_force_min(PlacementEngine& engine, std::vector<uint8_t>& a, size_t i) {
  if (i == a.size()) return engine.full_cost(a);
  if (engine.dag().pinned[i] != PlacementDag::kFreeHost) {
    return brute_force_min(engine, a, i + 1);
  }
  double best = std::numeric_limits<double>::infinity();
  for (int h = 0; h < engine.topology().host_count(); ++h) {
    a[i] = static_cast<uint8_t>(h);
    best = std::min(best, brute_force_min(engine, a, i + 1));
  }
  return best;
}

TEST(PlacementEngine, SolveMatchesBruteForceOnRandomDags) {
  TestRng rng(0x0b7e5eed);
  for (int trial = 0; trial < 200; ++trial) {
    HostTopology topo = random_topology(rng);
    const uint32_t hosts = static_cast<uint32_t>(topo.host_count());
    if (rng.next01() < 0.25) {
      // A dead link: every plan that routes an edge over it is unplaceable.
      const int s = static_cast<int>(rng.index(hosts));
      const int d = static_cast<int>((s + 1 + rng.index(hosts - 1)) % hosts);
      topo.set_link(s, d, {0.0, 0.01, 0.0});
    }
    PlacementDag dag = random_dag(rng, 3 + rng.index(8), 2);
    // At most 9 free nodes, and no more than the enumeration cap allows.
    size_t free_cap = 0;
    for (uint64_t plans = hosts; free_cap < 9 && plans <= PlacementEngine::kMaxPlans;
         plans *= hosts) {
      ++free_cap;
    }
    size_t free_nodes = 0;
    for (uint8_t& pin : dag.pinned) {
      if (pin == PlacementDag::kFreeHost && ++free_nodes > free_cap) pin = 0;
    }
    PlacementEngine engine(std::move(dag), std::move(topo), {});
    const PlacementDag& d = engine.dag();
    const size_t n = d.node_count();

    // Two seeds that respect the pins: everything local, and random hosts.
    std::vector<uint8_t> local(n, 0);
    std::vector<uint8_t> scattered(n, 0);
    uint64_t plans = 1;
    for (size_t i = 0; i < n; ++i) {
      if (d.pinned[i] != PlacementDag::kFreeHost) {
        local[i] = scattered[i] = d.pinned[i];
      } else {
        scattered[i] = static_cast<uint8_t>(rng.index(hosts));
        plans *= hosts;
      }
    }
    const PlacementResult a = engine.solve(local);
    const PlacementResult b = engine.solve(scattered);
    std::vector<uint8_t> probe = local;
    const double best = brute_force_min(engine, probe, 0);
    const double tol = 1e-9 * std::max(1.0, std::fabs(best));
    ASSERT_NEAR(a.cost_s, best, tol) << "trial " << trial;
    ASSERT_NEAR(b.cost_s, best, tol) << "trial " << trial;
    ASSERT_NEAR(engine.full_cost(a.assignment), a.cost_s, tol);
    EXPECT_EQ(a.plans, plans) << "every plan priced once";
    EXPECT_EQ(b.plans, plans);
    for (size_t i = 0; i < n; ++i) {
      if (d.pinned[i] != PlacementDag::kFreeHost) {
        ASSERT_EQ(a.assignment[i], d.pinned[i]);
        ASSERT_EQ(b.assignment[i], d.pinned[i]);
      }
    }
  }
}

TEST(PlacementEngine, SolveNeverWorseThanSeedAndRespectsPins) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  const std::vector<uint8_t> seed = two_host_seed(engine);
  const PlacementResult r = engine.solve(seed);
  EXPECT_LE(r.cost_s, r.seed_cost_s + 1e-12);
  EXPECT_EQ(r.plans, 243u);  // 3^5 plans
  EXPECT_GT(r.modeled_solve_s, 0.0);
  const PlacementDag& dag = engine.dag();
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.pinned[i] != PlacementDag::kFreeHost) {
      EXPECT_EQ(r.assignment[i], dag.pinned[i]) << dag.names[i];
    }
  }
}

TEST(PlacementEngine, ThreeTierBeatsTwoHostWhenGatewayIsCloser) {
  // Healthy WLAN: the gateway is one cheap hop away, so every free node goes
  // there — far cheaper than Algorithm 1's all-ECN-to-cloud seed.
  PlacementEngine healthy(make_pipeline_dag(),
                          HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  const PlacementResult r = healthy.solve(two_host_seed(healthy));
  EXPECT_TRUE(r.improved);
  EXPECT_NEAR(r.seed_cost_s, 0.1169, 1e-4);
  EXPECT_NEAR(r.cost_s, 0.0127, 1e-4);
  const PlacementDag& dag = healthy.dag();
  for (size_t i = 0; i < dag.node_count(); ++i) {
    EXPECT_EQ(r.assignment[i], dag.pinned[i] == PlacementDag::kFreeHost ? 1 : 0)
        << dag.names[i];
  }

  // Constrained WLAN, and congested WLAN behind a long WAN: the two 15 KB/s
  // scan legs and the RTT penalty price every remote tier out, so the
  // optimum keeps the whole pipeline on the vehicle.
  for (HostTopology topo : {HostTopology::three_tier(8, 48, 6.0e5, 0.08),
                            HostTopology::three_tier(8, 48, 1.0e6, 0.06, 0.05, 0.08)}) {
    PlacementEngine engine(make_pipeline_dag(), std::move(topo), {});
    const PlacementResult local = engine.solve(two_host_seed(engine));
    EXPECT_NEAR(local.cost_s, 0.0877, 1e-4);
    EXPECT_EQ(local.assignment, std::vector<uint8_t>(dag.node_count(), 0));
  }
}

TEST(PlacementEngine, SolveKeepsTheStartPlanOnATie) {
  // Two identical gateways behind the same healthy WLAN: every free node on
  // either one is the same, optimal, price. Without a gateway ↔ gateway link
  // the walk also prices unplaceable plans (1e6 s), and a tie must still
  // hold exactly after them.
  for (const bool linked : {true, false}) {
    HostTopology topo;
    topo.add_host({"lgv", Host::kLgv, 1});
    for (const char* name : {"gateway_1", "gateway_2"}) {
      const int g = topo.add_host({name, Host::kEdgeGateway, 8});
      topo.set_link(0, g, {2.5e6, 0.005, 0.0});
      topo.set_link(g, 0, {2.5e6, 0.005, 0.0});
    }
    if (linked) {
      topo.set_link(1, 2, {2.5e6, 0.005, 0.0});
      topo.set_link(2, 1, {2.5e6, 0.005, 0.0});
    }
    PlacementEngine engine(make_pipeline_dag(), std::move(topo), {});
    const PlacementDag& dag = engine.dag();
    const auto all_free_on = [&](uint8_t host) {
      std::vector<uint8_t> plan(dag.node_count(), 0);
      for (size_t i = 0; i < dag.node_count(); ++i) {
        if (dag.pinned[i] == PlacementDag::kFreeHost) plan[i] = host;
      }
      return plan;
    };
    ASSERT_EQ(all_free_on(2), (std::vector<uint8_t>{2, 2, 2, 2, 2, 0, 0}));
    ASSERT_EQ(engine.full_cost(all_free_on(1)), engine.full_cost(all_free_on(2)));

    for (const uint8_t gateway : {uint8_t{2}, uint8_t{1}}) {
      const PlacementResult r = engine.solve(all_free_on(gateway));
      EXPECT_EQ(r.assignment, all_free_on(gateway))
          << "linked " << linked << ", start on gateway " << int{gateway};
      EXPECT_FALSE(r.improved);
      EXPECT_EQ(r.cost_s, r.seed_cost_s);
    }
  }
}

TEST(PlacementEngine, ReoptimizeRepricesAfterTopologyChange) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  engine.solve(two_host_seed(engine));
  const uint64_t built = engine.table_rebuilds();
  // Degrade the WLAN: the incumbent's cached cost is stale, reoptimize must
  // rebuild tables once and still return a plan priced against the new world.
  engine.topology().observe_link(0, 1, 2.0e5, 0.15, 0.05);
  engine.topology().observe_link(1, 0, 2.0e5, 0.15, 0.05);
  engine.topology().observe_link(0, 2, 2.0e5, 0.174, 0.05);
  engine.topology().observe_link(2, 0, 2.0e5, 0.174, 0.05);
  const PlacementResult r = engine.reoptimize();
  EXPECT_EQ(engine.table_rebuilds(), built + 1);
  EXPECT_EQ(r.plans, 243u);
  // Price the returned assignment from scratch: must agree with the result.
  const double reference = engine.full_cost(r.assignment);
  EXPECT_NEAR(r.cost_s, reference, 1e-9 * std::max(1.0, reference));
}

TEST(PlacementEngine, ReoptimizeWithUnchangedTablesMakesNoMoves) {
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  const PlacementResult solved = engine.solve(two_host_seed(engine));
  // An unchanged observation leaves the tables (and so the optimum) alone.
  engine.topology().observe_link(0, 1, 2.5e6, 0.005, 0.0);
  const PlacementResult r = engine.reoptimize();
  EXPECT_EQ(r.plans, 0u);
  EXPECT_EQ(r.modeled_solve_s, 0.0);
  EXPECT_EQ(r.assignment, solved.assignment);
  EXPECT_EQ(r.cost_s, solved.cost_s);
  EXPECT_FALSE(r.improved);
  EXPECT_EQ(engine.solves_total(), 2u);
}

TEST(PlacementEngine, PlanSpacePastTheCapThrows) {
  TestRng rng(0xabcdef12);
  PlacementEngine engine(random_dag(rng, 48, 2),
                         HostTopology::three_tier(8, 48, 2.0e6, 0.02), {});
  EXPECT_THROW(engine.solve(two_host_seed(engine)), std::invalid_argument);
}

TEST(PlacementEngine, SolveRejectsAStartPlanOffTheTopology) {
  // The odometer counts each free node's host from its start host round to
  // itself; a start host the topology lacks would never come round.
  PlacementEngine engine(make_pipeline_dag(),
                         HostTopology::three_tier(8, 48, 2.5e6, 0.005), {});
  std::vector<uint8_t> plan(engine.dag().node_count(), 0);
  plan[0] = 3;  // hosts are 0..2
  EXPECT_THROW(engine.solve(plan), std::invalid_argument);
  plan[0] = 0;
  plan.pop_back();
  EXPECT_THROW(engine.solve(plan), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Runtime integration

TEST(PlacementEngine, MultiTierRuntimeAppliesEnginePlacement) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  ASSERT_NE(rt.placement_engine(), nullptr);
  const OffloadDecision d = rt.apply_initial_placement();
  EXPECT_EQ(rt.placement_engine()->solves_total(), 1u);
  // The mux never leaves the vehicle; every node has a valid host.
  EXPECT_EQ(rt.host_of(NodeId::kVelocityMux), Host::kLgv);
  EXPECT_EQ(d.placement.size(), all_nodes().size());
  // Telemetry surfaced the solve.
  ASSERT_NE(rt.telemetry(), nullptr);
  const auto snap = rt.telemetry()->metrics().snapshot();
  bool saw_solves = false;
  for (const auto& s : snap.samples) {
    if (s.name == "placement_solves_total" && s.value >= 1.0) saw_solves = true;
  }
  EXPECT_TRUE(saw_solves);
}

TEST(PlacementEngine, ReoptimizeRespectsAlgorithm2Retreat) {
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  rt.apply_initial_placement();
  ASSERT_EQ(rt.vdp_placement(), VdpPlacement::kRemote);
  const uint64_t solves = rt.placement_engine()->solves_total();

  // Algorithm 2 retreats local: everything comes home and re-optimization
  // stands down (Alg 2 keeps the when).
  EXPECT_TRUE(rt.set_vdp_placement(VdpPlacement::kLocal));
  for (NodeId id : all_nodes()) EXPECT_EQ(rt.host_of(id), Host::kLgv);
  const PlacementResult idle = rt.reoptimize_placement("while_local");
  EXPECT_EQ(idle.plans, 0u);
  EXPECT_EQ(rt.placement_engine()->solves_total(), solves);

  // Re-offload restores the engine's incumbent multi-tier plan.
  EXPECT_TRUE(rt.set_vdp_placement(VdpPlacement::kRemote));
  bool any_remote = false;
  for (NodeId id : all_nodes()) any_remote |= rt.host_of(id) != Host::kLgv;
  EXPECT_TRUE(any_remote);
  // A re-trigger after the link model moved re-enumerates all 3^5 plans.
  rt.profiler().record_rtt(1.0, 1.05);
  const PlacementResult r = rt.reoptimize_placement("re_trigger");
  EXPECT_EQ(r.plans, 243u);
  EXPECT_EQ(rt.placement_engine()->solves_total(), solves + 1);
}

TEST(PlacementEngine, LiveModelPricesLinkCapacityNotStreamRate) {
  // One second of the 5 Hz scan stream plus an RTT sample, as a lab mission
  // sees at t = 1 s. The WLAN still carries its full rate, so the scan
  // consumers stay off the vehicle; pricing the links at the stream's
  // achieved 5 Hz × 3000 B would overload them and pull everything home.
  OffloadRuntime rt(three_tier_plan("3tier", 24, WorkloadKind::kNavigationWithMap),
                    {0.0, 0.0});
  rt.apply_initial_placement();
  for (int i = 0; i < 5; ++i) {
    rt.clock().advance(0.2);
    rt.profiler().on_stream_packet(rt.clock().now());
  }
  rt.profiler().record_rtt(0.9, 0.93);
  rt.reoptimize_placement("adjust_epoch");
  for (NodeId id : {NodeId::kLocalization, NodeId::kCostmapGen, NodeId::kPathTracking}) {
    EXPECT_NE(rt.host_of(id), Host::kLgv) << node_name(id);
  }
}

TEST(PlacementEngine, PipelineDagMatchesNodeIds) {
  const PlacementDag dag = make_pipeline_dag();
  const std::vector<NodeId> nodes = all_nodes();
  ASSERT_GE(dag.node_count(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(dag.names[i], node_name(nodes[i]));
  }
  // The sensor source is pinned to the vehicle, as is the mux.
  for (size_t i = 0; i < dag.node_count(); ++i) {
    if (dag.names[i] == "velocity_mux" || dag.names[i] == "lidar_driver") {
      EXPECT_EQ(dag.pinned[i], 0);
    }
  }
}

}  // namespace
}  // namespace lgv::core
