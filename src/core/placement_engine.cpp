#include "core/placement_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/telemetry/telemetry.h"

namespace lgv::core {

namespace {

/// Cost assigned to assignments that violate a pin or route over a dead
/// link: large enough that any feasible plan beats any infeasible one, small
/// enough that two infeasible plans still compare.
constexpr double kUnplaceable = 1e6;

/// Modeled cycles per (node + edge + link) term of one plan's pricing, charged
/// to the vehicle's cost model so a solve has a deterministic virtual cost.
/// Calibrated from measured ns per pricing on x86, scaled to the RPi's IPC.
constexpr double kCyclesPerPricingUnit = 25.0;

/// A plan must beat the incumbent by more than this (relative, floor 1 s) to
/// replace it, so a tie keeps the start plan.
constexpr double kTieEpsilon = 1e-12;

}  // namespace

// ---------------------------------------------------------------------------
// PlacementDag

int PlacementDag::add_node(std::string name, double serial, double parallel,
                           uint8_t pin) {
  names.push_back(std::move(name));
  serial_cycles.push_back(serial);
  parallel_cycles.push_back(parallel);
  pinned.push_back(pin);
  return static_cast<int>(serial_cycles.size()) - 1;
}

void PlacementDag::add_edge(int src, int dst, double bytes, double rate_hz) {
  edges.push_back(Edge{static_cast<uint32_t>(src), static_cast<uint32_t>(dst),
                       bytes, rate_hz});
}

// ---------------------------------------------------------------------------
// PlacementEngine

PlacementEngine::PlacementEngine(PlacementDag dag, HostTopology topology,
                                 PlacementEngineConfig config)
    : dag_(std::move(dag)), topology_(std::move(topology)), config_(config) {
  assert(topology_.host_count() > 0 && topology_.host_count() <= 255);
  for (uint32_t i = 0; i < dag_.node_count(); ++i) {
    if (dag_.pinned[i] == PlacementDag::kFreeHost) free_nodes_.push_back(i);
  }
  refresh_tables();
}

void PlacementEngine::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    telemetry_ = nullptr;
    solves_counter_ = nullptr;
    plans_counter_ = nullptr;
    return;
  }
  auto& m = telemetry_->metrics();
  solves_counter_ = &m.counter("placement_solves_total");
  plans_counter_ = &m.counter("placement_delta_evals_total");
}

bool PlacementEngine::refresh_tables() {
  if (table_rebuilds_ > 0 && built_topology_generation_ == topology_.generation()) {
    return false;
  }
  const size_t n = dag_.node_count();
  const size_t h = static_cast<size_t>(hosts());

  compute_table_.assign(n * h, 0.0);
  for (size_t node = 0; node < n; ++node) {
    for (size_t host = 0; host < h; ++host) {
      if (dag_.pinned[node] != PlacementDag::kFreeHost &&
          dag_.pinned[node] != host) {
        compute_table_[node * h + host] = kUnplaceable;
        continue;
      }
      const platform::PlatformSpec& spec = topology_.cost_model(
          static_cast<int>(host)).spec();
      const int threads = std::max(1, topology_.host(static_cast<int>(host)).threads);
      const double ops = spec.single_thread_ops_per_sec();
      double t = dag_.serial_cycles[node] / ops;
      if (dag_.parallel_cycles[node] > 0.0) {
        t += dag_.parallel_cycles[node] / (ops * spec.parallel_throughput(threads)) +
             spec.dispatch_overhead_s * threads;
      }
      compute_table_[node * h + host] = t;
    }
  }

  edge_table_.assign(dag_.edges.size() * h * h * 2, 0.0);
  inv_capacity_.assign(h * h, 0.0);
  for (size_t s = 0; s < h; ++s) {
    for (size_t d = 0; d < h; ++d) {
      const TopologyLink& l = topology_.link(static_cast<int>(s), static_cast<int>(d));
      inv_capacity_[s * h + d] =
          (s == d || std::isinf(l.bandwidth_bps) || l.bandwidth_bps <= 0.0)
              ? 0.0
              : 1.0 / l.bandwidth_bps;
    }
  }
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    for (size_t s = 0; s < h; ++s) {
      for (size_t d = 0; d < h; ++d) {
        if (s == d) continue;  // co-located: free, no penalty
        const size_t idx = ((static_cast<size_t>(e) * h + s) * h + d) * 2;
        const TopologyLink& l =
            topology_.link(static_cast<int>(s), static_cast<int>(d));
        if (!(l.bandwidth_bps > 0.0)) {
          edge_table_[idx] = kUnplaceable;
          continue;
        }
        // One-way serialization + half the RTT, inflated by expected
        // retransmissions on a lossy link.
        const double loss_factor = 1.0 / std::max(1e-3, 1.0 - l.loss);
        edge_table_[idx] =
            (edge.bytes / l.bandwidth_bps) * loss_factor + 0.5 * l.rtt_s;
        const double excess = l.rtt_s - config_.rtt_threshold_s;
        if (excess > 0.0) {
          edge_table_[idx + 1] = config_.rtt_penalty_weight * excess;
        }
      }
    }
  }

  built_topology_generation_ = topology_.generation();
  ++table_rebuilds_;
  return true;
}

void PlacementEngine::price(PlacementCandidate& c) {
  const size_t n = dag_.node_count();
  const size_t h = static_cast<size_t>(hosts());
  assert(c.host.size() == n);
  link_load_bps_.assign(h * h, 0.0);
  c.compute_s = c.transfer_s = c.rtt_penalty_s = c.capacity_penalty_s = 0.0;
  for (size_t node = 0; node < n; ++node) {
    c.compute_s += compute_table_[node * h + c.host[node]];
  }
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    const size_t s = c.host[edge.src];
    const size_t d = c.host[edge.dst];
    const double* cost = &edge_table_[((e * h + s) * h + d) * 2];
    c.transfer_s += cost[0];
    c.rtt_penalty_s += cost[1];
    // Self links carry no load and no penalty.
    if (s != d) link_load_bps_[s * h + d] += edge.bytes * edge.rate_hz;
  }
  for (size_t l = 0; l < h * h; ++l) {
    // The reciprocal is 0 on self and unconstrained links: no penalty.
    const double util = link_load_bps_[l] * inv_capacity_[l];
    c.capacity_penalty_s += util > 1.0 ? config_.capacity_penalty_s * (util - 1.0) : 0.0;
  }
}

double PlacementEngine::full_cost(const std::vector<uint8_t>& assignment) {
  refresh_tables();
  PlacementCandidate c;
  c.host.assign(assignment.begin(), assignment.end());
  price(c);
  return c.cost();
}

PlacementResult PlacementEngine::enumerate(const std::vector<uint8_t>& start) {
  const int h = hosts();
  if (start.size() != dag_.node_count() ||
      std::any_of(start.begin(), start.end(), [h](uint8_t host) { return host >= h; })) {
    throw std::invalid_argument("PlacementEngine: start plan is not one host per node");
  }
  uint64_t plans = 1;
  for (size_t k = 0; k < free_nodes_.size() && plans <= kMaxPlans; ++k) plans *= h;
  if (plans > kMaxPlans) {
    throw std::invalid_argument("PlacementEngine: " + std::to_string(h) + "^" +
                                std::to_string(free_nodes_.size()) +
                                " plans exceed the enumeration cap");
  }

  PlacementResult result;
  PlacementCandidate walk;
  walk.host.assign(start.begin(), start.end());
  price(walk);
  best_ = walk;
  result.plans = 1;
  result.seed_cost_s = walk.cost();
  double best_cost = result.seed_cost_s;

  // Odometer over the free nodes: each one's host counts up from its start
  // host, wrapping at H, and carries into the next free node when it comes
  // back round to its start host. The first plan is `start`; the walk ends
  // when the last free node carries, having priced every plan once.
  for (;;) {
    size_t k = 0;
    for (; k < free_nodes_.size(); ++k) {
      const uint32_t node = free_nodes_[k];
      uint8_t& host = walk.host[node];
      host = host + 1 == h ? 0 : static_cast<uint8_t>(host + 1);
      if (host != start[node]) break;
    }
    if (k == free_nodes_.size()) break;
    price(walk);
    ++result.plans;
    if (walk.cost() < best_cost - kTieEpsilon * std::max(1.0, std::fabs(best_cost))) {
      best_cost = walk.cost();
      best_ = walk;
    }
  }
  best_tables_ = table_rebuilds_;

  result.assignment.assign(best_.host.begin(), best_.host.end());
  result.cost_s = best_cost;
  // Only a strictly cheaper plan replaces the start, so any move improved.
  result.improved = !std::equal(start.begin(), start.end(), best_.host.begin());
  // Deterministic modeled cost of the solve on the vehicle's silicon.
  const double pricing_units = static_cast<double>(
      dag_.node_count() + dag_.edges.size() + static_cast<size_t>(h * h));
  result.modeled_solve_s = static_cast<double>(result.plans) * pricing_units *
                           kCyclesPerPricingUnit /
                           topology_.cost_model(0).spec().single_thread_ops_per_sec();
  return result;
}

PlacementResult PlacementEngine::solve(const std::vector<uint8_t>& seed_assignment) {
  refresh_tables();
  PlacementResult result = enumerate(seed_assignment);
  ++solves_total_;
  record_solve(result, "solve");
  return result;
}

PlacementResult PlacementEngine::reoptimize() {
  assert(has_incumbent() && "reoptimize requires a prior solve()");
  refresh_tables();
  PlacementResult result;
  if (table_rebuilds_ != best_tables_) {
    // Link observations moved the prices: search again from the incumbent.
    const std::vector<uint8_t> incumbent(best_.host.begin(), best_.host.end());
    result = enumerate(incumbent);
  } else {
    // Same tables, same optimum: nothing to price.
    result.assignment.assign(best_.host.begin(), best_.host.end());
    result.cost_s = best_.cost();
    result.seed_cost_s = result.cost_s;
  }
  ++solves_total_;
  record_solve(result, "reoptimize");
  return result;
}

void PlacementEngine::record_solve(const PlacementResult& r, const char* mode) {
  if (solves_counter_ != nullptr) solves_counter_->inc();
  if (plans_counter_ != nullptr) plans_counter_->inc(r.plans);
  if (telemetry_ != nullptr) {
    const double improvement =
        r.seed_cost_s > 0.0 ? (r.seed_cost_s - r.cost_s) / r.seed_cost_s : 0.0;
    telemetry_->tracer().span(
        "placement.solve", "lgv", "placement", telemetry_->now(),
        r.modeled_solve_s,
        {{"mode", mode},
         {"plans", r.plans},
         {"cost_s", r.cost_s},
         {"improvement", improvement}});
  }
}

// ---------------------------------------------------------------------------
// The Fig. 2 pipeline as a placement DAG.

PlacementDag make_pipeline_dag() {
  PlacementDag d;
  // Nodes in all_nodes() order (NodeId ↔ dag index for the runtime mapping),
  // cycles per activation in Table II proportions: SLAM and the VDP kernels
  // carry the parallel work, planning/exploration are serial and sparse.
  const int loc = d.add_node("localization", 2.0e6, 38.0e6);
  const int cg = d.add_node("costmap_gen", 1.0e6, 9.0e6);
  const int pp = d.add_node("path_planning", 4.0e6, 0.0);
  const int ex = d.add_node("exploration", 1.5e6, 0.0);
  const int pt = d.add_node("path_tracking", 1.0e6, 17.0e6);
  const int mux = d.add_node("velocity_mux", 0.05e6, 0.0, 0);  // never leaves
  // The sensor source: zero compute, pinned to the vehicle — what prices the
  // scan uplink when consumers go remote.
  const int lidar = d.add_node("lidar_driver", 0.0, 0.0, 0);

  d.add_edge(lidar, loc, 3000.0, 5.0);  // LaserScan at 5 Hz
  d.add_edge(lidar, cg, 3000.0, 5.0);
  d.add_edge(loc, cg, 48.0, 5.0);       // pose correction
  d.add_edge(loc, pp, 48.0, 0.5);
  d.add_edge(loc, ex, 48.0, 0.5);
  d.add_edge(cg, pp, 8192.0, 0.5);      // costmap snapshot at replan cadence
  d.add_edge(cg, pt, 8192.0, 5.0);      // costmap window every tick
  d.add_edge(ex, pp, 48.0, 0.5);
  d.add_edge(pp, pt, 1024.0, 0.5);      // path
  d.add_edge(pt, mux, 48.0, 5.0);       // velocity command
  return d;
}

}  // namespace lgv::core
