// N-host generalization of the paper's two-host world (Fig. 8): a set of
// heterogeneous hosts (the RPi / gateway / Xeon cost models of Table III)
// joined by directed links with bandwidth, RTT and loss. The PlacementEngine
// prices DAG placements against this model; the link observables are fed
// live (the Profiler's RTT, the channel's signal-scaled capacity) so the model
// tracks the real channel instead of a config constant.
//
// Mutations are generation-stamped: any *material* change to a host or link
// bumps `generation()`, and consumers (the placement cost tables, like the
// LikelihoodField's map-version invalidation) rebuild only when the stamp
// moved. Feeding back an unchanged observation is free.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/cost_model.h"
#include "platform/platform_spec.h"

namespace lgv::core {

struct TopologyHost {
  std::string name;
  platform::Host kind = platform::Host::kLgv;  ///< Table III cost model row
  /// Parallel width granted to kernels placed here (the §V acceleration).
  int threads = 1;
};

struct TopologyLink {
  double bandwidth_bps = 0.0;  ///< payload bytes/second (0 = unusable)
  double rtt_s = 0.0;          ///< round-trip latency
  double loss = 0.0;           ///< delivery failure fraction in [0, 1)
};

class HostTopology {
 public:
  /// Register a host; returns its index. Index 0 must be the vehicle (the
  /// LGV is where the sensors live, so it anchors every DAG).
  int add_host(TopologyHost host);

  /// Set the directed link src → dst. Self links are implicit (infinite
  /// bandwidth, zero RTT) and may not be overwritten.
  void set_link(int src, int dst, TopologyLink link);

  /// Feed one live observation into the src → dst link. Bumps the generation
  /// only when a field moved by more than `kMaterialChange` relative — the
  /// no-change path costs three compares and never invalidates cost tables.
  void observe_link(int src, int dst, double bandwidth_bps, double rtt_s,
                    double loss);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  const TopologyHost& host(int i) const { return hosts_[static_cast<size_t>(i)]; }
  const platform::CostModel& cost_model(int i) const {
    return models_[static_cast<size_t>(i)];
  }
  const TopologyLink& link(int src, int dst) const {
    return links_[static_cast<size_t>(src * host_count() + dst)];
  }
  /// First host whose kind matches, or -1.
  int index_of(platform::Host kind) const;

  /// Stamp of the last material mutation (starts at 1 once any host exists).
  uint64_t generation() const { return generation_; }

  /// Three-tier edge/fog/cloud deployment: lgv → edge_gateway → cloud_server.
  /// The vehicle reaches the gateway over the WLAN (bandwidth/rtt/loss as
  /// given); the gateway reaches the datacenter over a wired backhaul
  /// (fast, adds WAN latency); the vehicle reaches the cloud through both.
  static HostTopology three_tier(int edge_threads, int cloud_threads,
                                 double wlan_bandwidth_bps, double wlan_rtt_s,
                                 double wlan_loss = 0.0,
                                 double wan_rtt_s = 0.024,
                                 double backhaul_bps = 100e6);

 private:
  /// Relative change below which an observation is "the same number".
  static constexpr double kMaterialChange = 1e-6;

  std::vector<TopologyHost> hosts_;
  std::vector<platform::CostModel> models_;
  std::vector<TopologyLink> links_;  ///< host_count² row-major, self = identity
  uint64_t generation_ = 0;
};

}  // namespace lgv::core
