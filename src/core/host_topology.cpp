#include "core/host_topology.h"

#include <cmath>
#include <limits>

namespace lgv::core {

namespace {

bool materially_different(double a, double b, double eps) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  return std::fabs(a - b) > eps * scale;
}

}  // namespace

int HostTopology::add_host(TopologyHost host) {
  const int index = host_count();
  models_.emplace_back(platform::spec_for(host.kind));
  hosts_.push_back(std::move(host));
  // Rebuild the square link matrix preserving existing entries. Hosts are
  // added during construction, not steady state, so O(n²) is fine.
  const int n = host_count();
  std::vector<TopologyLink> grown(static_cast<size_t>(n) * n);
  for (int s = 0; s < n - 1; ++s) {
    for (int d = 0; d < n - 1; ++d) {
      grown[static_cast<size_t>(s * n + d)] = links_[static_cast<size_t>(s * (n - 1) + d)];
    }
  }
  links_ = std::move(grown);
  // Self link: infinite bandwidth, zero latency.
  links_[static_cast<size_t>(index * n + index)] =
      TopologyLink{std::numeric_limits<double>::infinity(), 0.0, 0.0};
  ++generation_;
  return index;
}

void HostTopology::set_link(int src, int dst, TopologyLink link) {
  if (src == dst) return;  // self links are identity by construction
  links_[static_cast<size_t>(src * host_count() + dst)] = link;
  ++generation_;
}

void HostTopology::observe_link(int src, int dst, double bandwidth_bps,
                                double rtt_s, double loss) {
  if (src == dst) return;
  TopologyLink& l = links_[static_cast<size_t>(src * host_count() + dst)];
  if (!materially_different(l.bandwidth_bps, bandwidth_bps, kMaterialChange) &&
      !materially_different(l.rtt_s, rtt_s, kMaterialChange) &&
      !materially_different(l.loss, loss, kMaterialChange)) {
    return;  // same numbers: no invalidation, cost tables stay warm
  }
  l.bandwidth_bps = bandwidth_bps;
  l.rtt_s = rtt_s;
  l.loss = loss;
  ++generation_;
}

int HostTopology::index_of(platform::Host kind) const {
  for (int i = 0; i < host_count(); ++i) {
    if (hosts_[static_cast<size_t>(i)].kind == kind) return i;
  }
  return -1;
}

HostTopology HostTopology::three_tier(int edge_threads, int cloud_threads,
                                      double wlan_bandwidth_bps, double wlan_rtt_s,
                                      double wlan_loss, double wan_rtt_s,
                                      double backhaul_bps) {
  HostTopology t;
  t.add_host({"lgv", platform::Host::kLgv, 1});
  const int edge =
      t.add_host({"edge_gateway", platform::Host::kEdgeGateway, edge_threads});
  const int cloud =
      t.add_host({"cloud_server", platform::Host::kCloudServer, cloud_threads});
  // Vehicle ↔ gateway: the emulated WLAN.
  t.set_link(0, edge, {wlan_bandwidth_bps, wlan_rtt_s, wlan_loss});
  t.set_link(edge, 0, {wlan_bandwidth_bps, wlan_rtt_s, wlan_loss});
  // Gateway ↔ datacenter: wired backhaul, WAN latency, no loss modeled.
  t.set_link(edge, cloud, {backhaul_bps, wan_rtt_s, 0.0});
  t.set_link(cloud, edge, {backhaul_bps, wan_rtt_s, 0.0});
  // Vehicle ↔ datacenter: WLAN hop then WAN hop (§VIII-A: the VM is reached
  // through the same WAP, so bandwidth is the WLAN's and latency stacks).
  t.set_link(0, cloud, {wlan_bandwidth_bps, wlan_rtt_s + wan_rtt_s, wlan_loss});
  t.set_link(cloud, 0, {wlan_bandwidth_bps, wlan_rtt_s + wan_rtt_s, wlan_loss});
  return t;
}

}  // namespace lgv::core
