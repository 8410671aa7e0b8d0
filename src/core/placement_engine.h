// Multi-tier placement engine: prices "which host runs which node" plans for
// an N-host HostTopology over the computation DAG, and finds the cheapest one
// exactly, fast enough to run every adjustment epoch.
//
// Three layers:
//
//  1. Cost tables — per-(node, host) compute seconds and per-(edge, host
//     pair) transfer seconds (plus the RTT-threshold penalty), precomputed
//     from the Table III cost models and the topology's link observables.
//     Tables are generation-stamped against the DAG and topology (like the
//     LikelihoodField's map-version invalidation): feeding back unchanged
//     observations rebuilds nothing.
//
//  2. Incremental evaluator — a candidate is a flat SoA byte array (one host
//     index per node) plus cached cost terms and per-link offered load.
//     preview_move/apply_move re-price only the touched node and its
//     incident edges, so evaluating a neighbor is O(degree), not O(|DAG|).
//     full_cost() is the always-available reference the tests compare
//     against.
//
//  3. Exact enumerator — every assignment of the free nodes, walked in
//     mixed-radix reflected Gray-code order starting at the seed, so
//     consecutive plans differ in one node and each step is one apply_move.
//     The cheapest plan wins; a tie keeps the seed (or incumbent), so an
//     unchanged optimum never moves a node. The walk is H^free plans, which
//     caps the DAGs it accepts (kMaxPlans); the runtime's Fig. 2 pipeline is
//     3^5 = 243.
//
// The modeled objective is the additive pipeline makespan (Σ node compute +
// Σ edge transfer, matching the paper's additive VDP makespan) plus two
// soft-constraint terms: an RTT-threshold penalty on edges whose path
// latency exceeds the control deadline, and a capacity penalty on links
// offered more bytes/s than they carry.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/soa.h"
#include "core/host_topology.h"

namespace lgv::telemetry {
class Counter;
class Telemetry;
}

namespace lgv::core {

/// The computation graph being placed. Node storage is SoA; `kFreeHost`
/// marks a node the solver may move, anything else pins it (the velocity
/// mux never leaves the vehicle).
struct PlacementDag {
  static constexpr uint8_t kFreeHost = 0xff;

  struct Edge {
    uint32_t src = 0;
    uint32_t dst = 0;
    double bytes = 0.0;    ///< payload per activation
    double rate_hz = 5.0;  ///< activations per second (offered-load pricing)
  };

  std::vector<std::string> names;
  aligned_vector<double> serial_cycles;
  aligned_vector<double> parallel_cycles;
  aligned_vector<uint8_t> pinned;  ///< kFreeHost or a host index
  std::vector<Edge> edges;

  int add_node(std::string name, double serial, double parallel,
               uint8_t pin = kFreeHost);
  void add_edge(int src, int dst, double bytes, double rate_hz = 5.0);

  size_t node_count() const { return serial_cycles.size(); }
  uint64_t generation() const { return generation_; }

 private:
  uint64_t generation_ = 0;
};

/// One placement under evaluation: the flat assignment plus every cached
/// term an O(degree) move update needs.
struct PlacementCandidate {
  aligned_vector<uint8_t> host;      ///< host index per node
  std::vector<double> link_load_bps; ///< offered bytes/s per (src, dst) pair
  std::vector<double> link_penalty_s;  ///< cached capacity penalty per link
  double compute_s = 0.0;
  double transfer_s = 0.0;
  double rtt_penalty_s = 0.0;
  double capacity_penalty_s = 0.0;

  double cost() const {
    return compute_s + transfer_s + rtt_penalty_s + capacity_penalty_s;
  }
};

struct PlacementEngineConfig {
  double rtt_threshold_s = 0.1;        ///< control deadline
  double rtt_penalty_weight = 4.0;     ///< seconds charged per second of excess RTT
  double capacity_penalty_s = 2.0;     ///< seconds charged per unit link overload
};

struct PlacementResult {
  std::vector<uint8_t> assignment;  ///< host index per node
  double cost_s = 0.0;              ///< modeled makespan + penalties
  double seed_cost_s = 0.0;         ///< cost of the start plan (seed or incumbent)
  uint64_t delta_evals = 0;   ///< O(degree) moves this solve (one per plan stepped to)
  uint64_t full_evals = 0;    ///< O(|DAG|) candidate re-pricings this solve
  /// Deterministic modeled compute time of the solve itself on the vehicle
  /// (what the adjustment epoch pays — the < 10 ms budget).
  double modeled_solve_s = 0.0;
  bool improved = false;  ///< found something cheaper than the start plan
};

class PlacementEngine {
 public:
  PlacementEngine(PlacementDag dag, HostTopology topology,
                  PlacementEngineConfig config = {});

  const PlacementDag& dag() const { return dag_; }
  const HostTopology& topology() const { return topology_; }
  /// Mutable so link observations can be fed live; the next refresh_tables()
  /// (called internally by every solve) picks up the new generation.
  HostTopology& topology() { return topology_; }
  const PlacementEngineConfig& config() const { return config_; }

  /// placement.solve spans + placement_solves_total /
  /// placement_delta_evals_total counters; nullptr disconnects.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // ---- cost tables ----
  /// Rebuild the compute/transfer/penalty tables iff the DAG or topology
  /// generation moved since the last build. Returns true when work was done.
  bool refresh_tables();
  uint64_t table_rebuilds() const { return table_rebuilds_; }

  // ---- evaluation ----
  /// Price `assignment` from scratch (the O(|DAG|) reference).
  PlacementCandidate make_candidate(const std::vector<uint8_t>& assignment);
  /// Reference total cost of an assignment (used by tests and benches).
  double full_cost(const std::vector<uint8_t>& assignment);

  struct MoveDelta {
    double d_compute = 0.0;
    double d_transfer = 0.0;
    double d_rtt_penalty = 0.0;
    double d_capacity_penalty = 0.0;
    double total() const {
      return d_compute + d_transfer + d_rtt_penalty + d_capacity_penalty;
    }
  };
  /// Cost change of re-hosting `node` to `to`, touching only the node's
  /// compute entry, its incident edges, and the ≤ 2·degree affected links.
  /// Does not mutate the candidate. The preview reads the precombined sum
  /// table, so d_transfer carries transfer + RTT penalty and d_rtt_penalty
  /// is 0 — consume total(), not the individual terms (apply_move reprices
  /// the split exactly).
  MoveDelta preview_move(const PlacementCandidate& c, int node, uint8_t to) const;
  /// Apply the move, updating the cached terms by the preview's deltas.
  void apply_move(PlacementCandidate& c, int node, uint8_t to) const;

  // ---- search ----
  /// Largest plan space (H^free) solve/reoptimize enumerate: 32768 plans is
  /// 32767 moves, ~8.6 ms at 220 cycles each on the vehicle model, inside the
  /// 10 ms adjustment-epoch budget.
  static constexpr uint64_t kMaxPlans = uint64_t{1} << 15;

  /// Exact solve: enumerates every assignment of the free nodes starting at
  /// `seed_assignment` (Algorithm 1's two-host plan in production; any plan
  /// that respects the pins in tests) and returns the cheapest, the seed on
  /// a tie. Throws std::invalid_argument when H^free exceeds kMaxPlans.
  PlacementResult solve(const std::vector<uint8_t>& seed_assignment);
  /// The re-trigger path Algorithm 2 / ApSelector handoffs invoke. When the
  /// tables were rebuilt since the incumbent was found, re-enumerates from
  /// the incumbent; otherwise the optimum cannot have moved and it returns
  /// the incumbent with zero moves. Requires a prior solve(); throws like
  /// solve().
  PlacementResult reoptimize();

  bool has_incumbent() const { return !best_.host.empty(); }
  const PlacementCandidate& incumbent() const { return best_; }
  uint64_t solves_total() const { return solves_total_; }

 private:
  /// One incident edge in the move kernel's adjacency: everything a move
  /// needs, precomputed — no dag_.edges indirection on the hot path.
  struct AdjEdge {
    size_t table_base;  ///< edge × H²: the edge's slab in sum_table_ (× 2 for
                        ///< the interleaved edge_table_)
    uint32_t other;     ///< the neighbor node (the endpoint that stays put)
    double load_bps;    ///< bytes × rate_hz
  };

  int hosts() const { return topology_.host_count(); }
  size_t link_index(uint8_t src, uint8_t dst) const {
    return static_cast<size_t>(src) * static_cast<size_t>(hosts()) + dst;
  }
  /// Fused per-(edge, src host, dst host) entry: [0] transfer seconds, [1]
  /// RTT-threshold penalty seconds. One index computation, adjacent loads.
  const double* edge_cost(uint32_t edge, uint8_t src_host, uint8_t dst_host) const {
    return &edge_table_[((static_cast<size_t>(edge) * hosts() + src_host) * hosts() +
                         dst_host) *
                        2];
  }
  /// Capacity penalty of one link carrying `load_bps` (0 on self links and
  /// unconstrained links; uses the precomputed inverse capacity — no divide).
  double link_penalty(size_t link, double load_bps) const;
  /// Re-price `c` from its assignment: the O(|DAG|) full evaluation that
  /// make_candidate/full_cost and the enumerator share.
  void price(PlacementCandidate& c) const;
  /// Shared core of preview_move/apply_move. Every affected link has `from`
  /// or `to` as an endpoint, so load changes accumulate into two dense
  /// per-host lanes (outbound/inbound; the load an edge takes off `from→o`
  /// is exactly what it puts on `to→o`) and the penalty pass enumerates the
  /// ≤ 4·H distinct links once — O(degree + H) per move. With kCollect,
  /// `affected` receives the unique (link, load-change) pairs apply_move
  /// folds into the candidate's caches; the preview path (kCollect = false)
  /// carries no such bookkeeping at all. kH is the host count as a
  /// compile-time constant for the common 2–4 host tiers (0 = runtime), so
  /// lane zeroing, loop trip counts, and table addressing all constant-fold.
  template <bool kCollect, size_t kH>
  MoveDelta move_impl(const PlacementCandidate& c, int node, uint8_t to,
                      std::vector<std::pair<size_t, double>>* affected) const;
  template <bool kCollect>
  MoveDelta move_dispatch(const PlacementCandidate& c, int node, uint8_t to,
                          std::vector<std::pair<size_t, double>>* affected) const;
  void build_adjacency();
  /// The Gray-code walk behind solve/reoptimize: every free-node assignment
  /// from `start`, leaving the cheapest in best_.
  PlacementResult enumerate(const std::vector<uint8_t>& start);
  void record_solve(const PlacementResult& r, const char* mode);

  PlacementDag dag_;
  HostTopology topology_;
  PlacementEngineConfig config_;
  telemetry::Telemetry* telemetry_ = nullptr;

  // Tables (rebuilt when dag/topology generations move).
  aligned_vector<double> compute_table_;  ///< node × host seconds
  /// edge × host × host × {transfer s, rtt penalty s}, interleaved.
  aligned_vector<double> edge_table_;
  /// edge × host × host → transfer + rtt penalty, precombined. The preview
  /// path only needs the summed move delta, so it reads this half-size table
  /// (one load where edge_table_ needs two, and twice the L1 reach).
  aligned_vector<double> sum_table_;
  aligned_vector<double> inv_capacity_;   ///< 1/bandwidth per link (0 = free)
  uint64_t built_dag_generation_ = 0;
  uint64_t built_topology_generation_ = 0;
  uint64_t table_rebuilds_ = 0;

  // CSR adjacency, split by direction so the move kernel runs two
  // branch-free loops: per node, [out_offsets_[n], out_offsets_[n+1]) are
  // edges the node produces, [in_offsets_[n], in_offsets_[n+1]) edges it
  // consumes.
  std::vector<uint32_t> adj_out_offsets_;
  std::vector<uint32_t> adj_in_offsets_;
  std::vector<AdjEdge> adj_out_;
  std::vector<AdjEdge> adj_in_;

  // Solver state.
  PlacementCandidate best_;
  PlacementCandidate walk_;         ///< the enumeration's moving plan
  std::vector<uint32_t> free_nodes_;  ///< unpinned node indices (the digits)
  uint64_t best_tables_ = 0;  ///< table_rebuilds_ the incumbent was found under
  uint64_t solves_total_ = 0;

  // Telemetry handles (null when disconnected).
  telemetry::Counter* solves_counter_ = nullptr;
  telemetry::Counter* delta_evals_counter_ = nullptr;
};

/// Build the Fig. 2 pipeline as a PlacementDag: per-node cycles from the
/// profiled WorkMeter shares (Table II) scaled to `cycles_per_activation`,
/// message sizes from the real wire payloads, the velocity mux pinned to the
/// vehicle (host 0). Used by OffloadRuntime's multi-tier mode and the bench.
PlacementDag make_pipeline_dag();

}  // namespace lgv::core
