#include "core/placement_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/telemetry/telemetry.h"

namespace lgv::core {

namespace {

/// Cost assigned to assignments that violate a pin or route over a dead
/// link: large enough that any feasible plan beats any infeasible one, small
/// enough that two infeasible plans still compare.
constexpr double kUnplaceable = 1e6;

/// Modeled cycle prices of the evaluator itself (charged to the vehicle's
/// cost model so a solve has a deterministic virtual cost — the < 10 ms
/// adjustment-epoch budget). Calibrated from the bench's measured ns/eval on
/// commodity x86 scaled to the RPi's IPC.
constexpr double kCyclesPerDeltaEval = 220.0;
constexpr double kCyclesPerFullEvalUnit = 25.0;  ///< per (node + edge + link)

/// A plan must beat the incumbent by more than this (relative, floor 1 s) to
/// replace it: the walk's running cost carries rounding from hundreds of
/// incremental updates, and a tie must keep the incumbent.
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
  ++generation_;
  return static_cast<int>(serial_cycles.size()) - 1;
}

void PlacementDag::add_edge(int src, int dst, double bytes, double rate_hz) {
  edges.push_back(Edge{static_cast<uint32_t>(src), static_cast<uint32_t>(dst),
                       bytes, rate_hz});
  ++generation_;
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
  build_adjacency();
  refresh_tables();
}

void PlacementEngine::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr || !telemetry_->enabled()) {
    telemetry_ = nullptr;
    solves_counter_ = nullptr;
    delta_evals_counter_ = nullptr;
    return;
  }
  auto& m = telemetry_->metrics();
  solves_counter_ = &m.counter("placement_solves_total");
  delta_evals_counter_ = &m.counter("placement_delta_evals_total");
}

void PlacementEngine::build_adjacency() {
  const size_t n = dag_.node_count();
  const size_t hh = static_cast<size_t>(hosts()) * static_cast<size_t>(hosts());
  std::vector<uint32_t> out_degree(n, 0);
  std::vector<uint32_t> in_degree(n, 0);
  for (const PlacementDag::Edge& e : dag_.edges) {
    ++out_degree[e.src];
    ++in_degree[e.dst];
  }
  adj_out_offsets_.assign(n + 1, 0);
  adj_in_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    adj_out_offsets_[i + 1] = adj_out_offsets_[i] + out_degree[i];
    adj_in_offsets_[i + 1] = adj_in_offsets_[i] + in_degree[i];
  }
  adj_out_.resize(adj_out_offsets_[n]);
  adj_in_.resize(adj_in_offsets_[n]);
  std::vector<uint32_t> out_fill(adj_out_offsets_.begin(), adj_out_offsets_.end() - 1);
  std::vector<uint32_t> in_fill(adj_in_offsets_.begin(), adj_in_offsets_.end() - 1);
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    const AdjEdge entry{e * hh, 0, edge.bytes * edge.rate_hz};
    adj_out_[out_fill[edge.src]] = entry;
    adj_out_[out_fill[edge.src]++].other = edge.dst;
    adj_in_[in_fill[edge.dst]] = entry;
    adj_in_[in_fill[edge.dst]++].other = edge.src;
  }
}

bool PlacementEngine::refresh_tables() {
  if (table_rebuilds_ > 0 && built_dag_generation_ == dag_.generation() &&
      built_topology_generation_ == topology_.generation()) {
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
  sum_table_.assign(dag_.edges.size() * h * h, 0.0);
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
        const size_t sum_idx = (static_cast<size_t>(e) * h + s) * h + d;
        const size_t idx = sum_idx * 2;
        if (s == d) continue;  // co-located: free, no penalty
        const TopologyLink& l =
            topology_.link(static_cast<int>(s), static_cast<int>(d));
        if (!(l.bandwidth_bps > 0.0)) {
          edge_table_[idx] = kUnplaceable;
          sum_table_[sum_idx] = kUnplaceable;
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
        sum_table_[sum_idx] = edge_table_[idx] + edge_table_[idx + 1];
      }
    }
  }

  built_dag_generation_ = dag_.generation();
  built_topology_generation_ = topology_.generation();
  ++table_rebuilds_;
  return true;
}

double PlacementEngine::link_penalty(size_t link, double load_bps) const {
  const double util = load_bps * inv_capacity_[link];
  return util > 1.0 ? config_.capacity_penalty_s * (util - 1.0) : 0.0;
}

void PlacementEngine::price(PlacementCandidate& c) const {
  const size_t n = dag_.node_count();
  const size_t h = static_cast<size_t>(hosts());
  assert(c.host.size() == n);
  c.link_load_bps.assign(h * h, 0.0);
  c.link_penalty_s.assign(h * h, 0.0);
  c.compute_s = 0.0;
  c.transfer_s = 0.0;
  c.rtt_penalty_s = 0.0;
  c.capacity_penalty_s = 0.0;
  for (size_t node = 0; node < n; ++node) {
    c.compute_s += compute_table_[node * h + c.host[node]];
  }
  for (uint32_t e = 0; e < dag_.edges.size(); ++e) {
    const PlacementDag::Edge& edge = dag_.edges[e];
    const uint8_t s = c.host[edge.src];
    const uint8_t d = c.host[edge.dst];
    const double* cost = edge_cost(e, s, d);
    c.transfer_s += cost[0];
    c.rtt_penalty_s += cost[1];
    // Self links carry no penalty; keeping them out of the load books keeps
    // the candidate's caches byte-identical with apply_move's updates.
    if (s != d) c.link_load_bps[link_index(s, d)] += edge.bytes * edge.rate_hz;
  }
  for (size_t l = 0; l < h * h; ++l) {
    c.link_penalty_s[l] = link_penalty(l, c.link_load_bps[l]);
    c.capacity_penalty_s += c.link_penalty_s[l];
  }
}

PlacementCandidate PlacementEngine::make_candidate(
    const std::vector<uint8_t>& assignment) {
  refresh_tables();
  PlacementCandidate c;
  c.host.assign(assignment.begin(), assignment.end());
  price(c);
  return c;
}

double PlacementEngine::full_cost(const std::vector<uint8_t>& assignment) {
  refresh_tables();
  static thread_local PlacementCandidate scratch;
  scratch.host.assign(assignment.begin(), assignment.end());
  price(scratch);
  return scratch.cost();
}

namespace {
/// Per-thread move-kernel scratch (255 hosts max). POD with static
/// initialization — no thread-safe init guard on the hot path.
struct MoveScratch {
  double lanes[2 * 256];  ///< per-host load lanes (out, in)
};
thread_local MoveScratch g_move_scratch;
}  // namespace

template <bool kCollect, size_t kH>
PlacementEngine::MoveDelta PlacementEngine::move_impl(
    const PlacementCandidate& c, int node, uint8_t to,
    std::vector<std::pair<size_t, double>>* affected) const {
  MoveDelta delta;
  if (kCollect) affected->clear();
  const uint8_t from = c.host[static_cast<size_t>(node)];
  if (from == to) return delta;
  const size_t h = kH != 0 ? kH : static_cast<size_t>(hosts());
  delta.d_compute = compute_table_[static_cast<size_t>(node) * h + to] -
                    compute_table_[static_cast<size_t>(node) * h + from];

  // Every link a move touches has `from` or `to` as one endpoint, and the
  // load a produced edge takes off link (from → o) is exactly the load it
  // puts on (to → o) — so two dense per-host lanes suffice: out_[o] is the
  // load shifting (from → o) ⇒ (to → o), in_[o] the load shifting (o →
  // from) ⇒ (o → to). No dedup scan; self entries are dead lanes the
  // penalty pass skips.
  // Fixed-count zeroing for realistic host counts: unrolls to a few wide
  // stores instead of a libc memset call of runtime length.
  MoveScratch& scratch = g_move_scratch;
  if (kH != 0) {
    for (size_t i = 0; i < 2 * kH; ++i) scratch.lanes[i] = 0.0;
  } else if (h <= 8) {
    for (size_t i = 0; i < 16; ++i) scratch.lanes[i] = 0.0;
  } else {
    std::memset(scratch.lanes, 0, 2 * h * sizeof(double));
  }
  double* out_ = scratch.lanes;
  double* in_ = scratch.lanes + h;

  const size_t from_off = static_cast<size_t>(from) * h;
  const size_t to_off = static_cast<size_t>(to) * h;
  const uint8_t* host = c.host.data();
  double d_transfer = 0.0;
  double d_rtt = 0.0;

  // Edge legs: table rows (from, other) → (to, other) for produced edges,
  // (other, from) → (other, to) for consumed ones. The preview path reads
  // the precombined sum table (one load per endpoint, half the footprint);
  // the apply path needs the transfer/rtt split to maintain the candidate's
  // per-term caches, so it reads the interleaved table.
  const AdjEdge* out = adj_out_.data();
  for (uint32_t a = adj_out_offsets_[static_cast<size_t>(node)],
                end = adj_out_offsets_[static_cast<size_t>(node) + 1];
       a < end; ++a) {
    const AdjEdge& ref = out[a];
    const size_t other = host[ref.other];
    if constexpr (kCollect) {
      const double* old_cost = &edge_table_[(ref.table_base + from_off + other) * 2];
      const double* new_cost = &edge_table_[(ref.table_base + to_off + other) * 2];
      d_transfer += new_cost[0] - old_cost[0];
      d_rtt += new_cost[1] - old_cost[1];
    } else {
      d_transfer += sum_table_[ref.table_base + to_off + other] -
                    sum_table_[ref.table_base + from_off + other];
    }
    out_[other] += ref.load_bps;
  }
  const AdjEdge* in = adj_in_.data();
  for (uint32_t a = adj_in_offsets_[static_cast<size_t>(node)],
                end = adj_in_offsets_[static_cast<size_t>(node) + 1];
       a < end; ++a) {
    const AdjEdge& ref = in[a];
    const size_t other = host[ref.other];
    const size_t other_off = other * h;
    if constexpr (kCollect) {
      const double* old_cost = &edge_table_[(ref.table_base + other_off + from) * 2];
      const double* new_cost = &edge_table_[(ref.table_base + other_off + to) * 2];
      d_transfer += new_cost[0] - old_cost[0];
      d_rtt += new_cost[1] - old_cost[1];
    } else {
      d_transfer += sum_table_[ref.table_base + other_off + to] -
                    sum_table_[ref.table_base + other_off + from];
    }
    in_[other] += ref.load_bps;
  }
  delta.d_transfer = d_transfer;
  delta.d_rtt_penalty = d_rtt;

  // Affected links: every one has `from` or `to` as an endpoint; the (from,
  // to) and (to, from) links appear in two lanes each and are merged up
  // front; self links never enter the books (their penalty is identically
  // zero). No zero-delta filtering: a Δ of 0.0 yields a penalty contribution
  // of exactly 0.0 (same multiply-by-inverse form as link_penalty()), so
  // every visit runs unconditionally and `max` keeps the pass branch-free.
  const double* load_bps = c.link_load_bps.data();
  const double* pen_s = c.link_penalty_s.data();
  const double* invc = inv_capacity_.data();
  const double cap_w = config_.capacity_penalty_s;
  double d_capacity = 0.0;
  auto visit = [&](size_t link, double d) {
    const double util = (load_bps[link] + d) * invc[link];
    d_capacity += cap_w * std::max(util - 1.0, 0.0) - pen_s[link];
    if (kCollect) affected->emplace_back(link, d);
  };
  visit(from_off + to, in_[from] - out_[to]);
  visit(to_off + from, out_[from] - in_[to]);
  for (size_t o = 0; o < h; ++o) {
    if (o == from || o == to) continue;
    const double out_d = out_[o];
    const double in_d = in_[o];
    visit(from_off + o, -out_d);
    visit(to_off + o, out_d);
    visit(o * h + from, -in_d);
    visit(o * h + to, in_d);
  }
  delta.d_capacity_penalty = d_capacity;
  return delta;
}

template <bool kCollect>
PlacementEngine::MoveDelta PlacementEngine::move_dispatch(
    const PlacementCandidate& c, int node, uint8_t to,
    std::vector<std::pair<size_t, double>>* affected) const {
  switch (hosts()) {
    case 2: return move_impl<kCollect, 2>(c, node, to, affected);
    case 3: return move_impl<kCollect, 3>(c, node, to, affected);
    case 4: return move_impl<kCollect, 4>(c, node, to, affected);
    default: return move_impl<kCollect, 0>(c, node, to, affected);
  }
}

PlacementEngine::MoveDelta PlacementEngine::preview_move(const PlacementCandidate& c,
                                                         int node, uint8_t to) const {
  return move_dispatch<false>(c, node, to, nullptr);
}

void PlacementEngine::apply_move(PlacementCandidate& c, int node, uint8_t to) const {
  static thread_local std::vector<std::pair<size_t, double>> scratch;
  const MoveDelta delta = move_dispatch<true>(c, node, to, &scratch);
  if (c.host[static_cast<size_t>(node)] == to) return;
  for (const auto& [link, d] : scratch) {
    c.link_load_bps[link] += d;
    c.link_penalty_s[link] = link_penalty(link, c.link_load_bps[link]);
  }
  c.host[static_cast<size_t>(node)] = to;
  c.compute_s += delta.d_compute;
  c.transfer_s += delta.d_transfer;
  c.rtt_penalty_s += delta.d_rtt_penalty;
  c.capacity_penalty_s += delta.d_capacity_penalty;
}

PlacementResult PlacementEngine::enumerate(const std::vector<uint8_t>& start) {
  assert(start.size() == dag_.node_count());
  const uint64_t h = static_cast<uint64_t>(hosts());
  uint64_t plans = 1;
  for (size_t k = 0; k < free_nodes_.size() && h > 1; ++k) {
    plans *= h;
    if (plans > kMaxPlans) {
      throw std::invalid_argument(
          "PlacementEngine: " + std::to_string(h) + "^" +
          std::to_string(free_nodes_.size()) + " plans exceed the enumeration cap");
    }
  }

  PlacementResult result;
  walk_.host.assign(start.begin(), start.end());
  price(walk_);
  best_ = walk_;
  result.full_evals = 1;
  result.seed_cost_s = walk_.cost();
  double best_cost = result.seed_cost_s;

  // Knuth's loopless reflected mixed-radix Gray code (TAOCP 7.2.1.1,
  // Algorithm H) over one digit per free node: digit d of node k means host
  // (start[k] + d) mod H, so the all-zero tuple is the start plan and every
  // step moves exactly one node. `focus` names the next digit to step.
  const size_t n = h > 1 ? free_nodes_.size() : 0;
  std::vector<uint8_t> digit(n, 0);
  std::vector<int8_t> dir(n, 1);
  std::vector<size_t> focus(n + 1);
  for (size_t k = 0; k <= n; ++k) focus[k] = k;
  for (;;) {
    const size_t k = focus[0];
    focus[0] = 0;
    if (k == n) break;
    digit[k] = static_cast<uint8_t>(digit[k] + dir[k]);
    const uint32_t node = free_nodes_[k];
    apply_move(walk_, static_cast<int>(node),
               static_cast<uint8_t>((start[node] + digit[k]) % h));
    ++result.delta_evals;
    if (digit[k] == 0 || digit[k] == h - 1) {
      dir[k] = static_cast<int8_t>(-dir[k]);
      focus[k] = focus[k + 1];
      focus[k + 1] = k + 1;
    }
    if (walk_.cost() < best_cost - kTieEpsilon * std::max(1.0, std::fabs(best_cost))) {
      best_cost = walk_.cost();
      best_.host = walk_.host;
    }
  }
  // The winner's caches came from the walk's running sums: re-price it so
  // the incumbent (and the reported cost) is exact.
  price(best_);
  ++result.full_evals;
  best_tables_ = table_rebuilds_;

  result.assignment.assign(best_.host.begin(), best_.host.end());
  result.cost_s = best_.cost();
  // Only a strictly cheaper plan replaces the start, so any move improved.
  result.improved = !std::equal(start.begin(), start.end(), best_.host.begin());
  // Deterministic modeled cost of the solve on the vehicle's silicon.
  const double eval_unit = static_cast<double>(
      dag_.node_count() + dag_.edges.size() +
      static_cast<size_t>(hosts()) * static_cast<size_t>(hosts()));
  const double cycles =
      static_cast<double>(result.delta_evals) * kCyclesPerDeltaEval +
      static_cast<double>(result.full_evals) * kCyclesPerFullEvalUnit * eval_unit;
  result.modeled_solve_s =
      cycles / topology_.cost_model(0).spec().single_thread_ops_per_sec();
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
    // Same tables, same optimum: nothing to evaluate.
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
  if (delta_evals_counter_ != nullptr) delta_evals_counter_->inc(r.delta_evals);
  if (telemetry_ != nullptr) {
    const double improvement =
        r.seed_cost_s > 0.0 ? (r.seed_cost_s - r.cost_s) / r.seed_cost_s : 0.0;
    telemetry_->tracer().span(
        "placement.solve", "lgv", "placement", telemetry_->now(),
        r.modeled_solve_s,
        {{"mode", mode},
         {"delta_evals", std::to_string(r.delta_evals)},
         {"cost_s", std::to_string(r.cost_s)},
         {"improvement", std::to_string(improvement)}});
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
