// Multi-tier placement engine: prices "which host runs which node" plans for
// an N-host HostTopology over the computation DAG, and finds the cheapest one
// exactly, fast enough to run every adjustment epoch.
//
// Two layers:
//
//  1. Cost tables and pricing — per-(node, host) compute seconds and
//     per-(edge, host pair) transfer seconds (plus the RTT-threshold
//     penalty), precomputed from the Table III cost models and the
//     topology's link observables. Tables are generation-stamped against the
//     topology (like the LikelihoodField's map-version invalidation): feeding
//     back unchanged observations rebuilds nothing. price() sums one plan
//     from the tables in O(N + E + H²); full_cost() and the enumerator share
//     it, so every reported cost comes from the same summation.
//
//  2. Exact enumerator — every assignment of the free nodes, counted like an
//     odometer from the start plan, each plan priced by price(). The
//     cheapest plan wins; a tie keeps the start plan (seed or incumbent), so
//     an unchanged optimum never moves a node. The walk is H^free plans,
//     which caps the DAGs it accepts (kMaxPlans); the runtime's Fig. 2
//     pipeline is 3^5 = 243.
//
// The modeled objective is the additive pipeline makespan (Σ node compute +
// Σ edge transfer, matching the paper's additive VDP makespan) plus two
// soft-constraint terms: an RTT-threshold penalty on edges whose path
// latency exceeds the control deadline, and a capacity penalty on links
// offered more bytes/s than they carry.
#pragma once

#include <cstdint>
#include <string>
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
};

/// One priced placement: the flat assignment and its cost terms.
struct PlacementCandidate {
  aligned_vector<uint8_t> host;  ///< host index per node
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
  /// Plans priced: H^free for a walk, 0 for a re-trigger that skipped it.
  uint64_t plans = 0;
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

  /// placement.solve spans + placement_solves_total / placement_delta_evals_total
  /// (plans priced) counters; nullptr disconnects.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // ---- cost tables ----
  /// Rebuild the compute/transfer/penalty tables iff the topology generation
  /// moved since the last build. Returns true when work was done.
  bool refresh_tables();
  uint64_t table_rebuilds() const { return table_rebuilds_; }

  /// Total cost of an assignment, priced from the tables (the same price()
  /// every solve uses).
  double full_cost(const std::vector<uint8_t>& assignment);

  // ---- search ----
  /// Largest plan space (H^free) solve/reoptimize enumerate: 8192 pricings
  /// of a pipeline-sized DAG (N + E + H² = 26) are ~6.3 ms at 25 cycles per
  /// unit on the vehicle model, inside the 10 ms adjustment-epoch budget.
  static constexpr uint64_t kMaxPlans = uint64_t{1} << 13;

  /// Exact solve: prices every assignment of the free nodes starting at
  /// `seed_assignment` (Algorithm 1's two-host plan in production; any plan
  /// that respects the pins in tests) and returns the cheapest, the seed on
  /// a tie. Throws std::invalid_argument when H^free exceeds kMaxPlans or
  /// the seed names a host the topology does not have.
  PlacementResult solve(const std::vector<uint8_t>& seed_assignment);
  /// The re-trigger path Algorithm 2 / ApSelector handoffs invoke. When the
  /// tables were rebuilt since the incumbent was found, re-enumerates from
  /// the incumbent; otherwise the optimum cannot have moved and it returns
  /// the incumbent having priced nothing. Requires a prior solve(); throws
  /// like solve().
  PlacementResult reoptimize();

  bool has_incumbent() const { return !best_.host.empty(); }
  const PlacementCandidate& incumbent() const { return best_; }
  uint64_t solves_total() const { return solves_total_; }

 private:
  int hosts() const { return topology_.host_count(); }
  /// Price `c` from its assignment: nodes, then edges, then links.
  void price(PlacementCandidate& c);
  /// The odometer walk behind solve/reoptimize: every free-node assignment
  /// from `start`, leaving the cheapest in best_.
  PlacementResult enumerate(const std::vector<uint8_t>& start);
  void record_solve(const PlacementResult& r, const char* mode);

  PlacementDag dag_;
  HostTopology topology_;
  PlacementEngineConfig config_;
  telemetry::Telemetry* telemetry_ = nullptr;

  // Tables (rebuilt when the topology generation moves).
  aligned_vector<double> compute_table_;  ///< node × host seconds
  /// edge × host × host × {transfer s, rtt penalty s}, interleaved.
  aligned_vector<double> edge_table_;
  aligned_vector<double> inv_capacity_;   ///< 1/bandwidth per link (0 = free)
  uint64_t built_topology_generation_ = 0;
  uint64_t table_rebuilds_ = 0;
  std::vector<double> link_load_bps_;  ///< price()'s per-link offered load

  // Solver state.
  PlacementCandidate best_;
  std::vector<uint32_t> free_nodes_;  ///< unpinned node indices (the digits)
  uint64_t best_tables_ = 0;  ///< table_rebuilds_ the incumbent was found under
  uint64_t solves_total_ = 0;

  // Telemetry handles (null when disconnected).
  telemetry::Counter* solves_counter_ = nullptr;
  telemetry::Counter* plans_counter_ = nullptr;
};

/// Build the Fig. 2 pipeline as a PlacementDag: per-node cycles in the
/// profiled Table II shares, message sizes from the real wire payloads, the
/// velocity mux and lidar pinned to the vehicle (host 0).
PlacementDag make_pipeline_dag();

}  // namespace lgv::core
