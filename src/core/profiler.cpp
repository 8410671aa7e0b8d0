#include "core/profiler.h"

#include <utility>

namespace lgv::core {

Profiler::Profiler(ProfilerConfig config, Point2D wap_position)
    : config_(config),
      bandwidth_(config.bandwidth_window_s),
      direction_(wap_position, config.direction_history) {}

void Profiler::record_node_time(NodeId node, platform::Host host, double seconds) {
  const auto key = std::make_pair(node, host);
  const auto it = node_times_.find(key);
  if (it == node_times_.end()) {
    node_times_[key] = seconds;
  } else {
    it->second = config_.ema_alpha * seconds + (1.0 - config_.ema_alpha) * it->second;
  }
}

std::optional<double> Profiler::node_time(NodeId node, platform::Host host) const {
  const auto it = node_times_.find(std::make_pair(node, host));
  if (it == node_times_.end()) return std::nullopt;
  return it->second;
}

void Profiler::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr || !telemetry->enabled()) {
    rtt_ms_ = nullptr;
    vdp_local_s_ = nullptr;
    vdp_remote_s_ = nullptr;
    bandwidth_hz_ = nullptr;
    signal_direction_ = nullptr;
    return;
  }
  auto& m = telemetry->metrics();
  rtt_ms_ = &m.histogram("net_rtt_ms", {}, telemetry::latency_bounds_ms());
  vdp_local_s_ = &m.histogram("vdp_makespan_s", {{"placement", "local"}});
  vdp_remote_s_ = &m.histogram("vdp_makespan_s", {{"placement", "remote"}});
  bandwidth_hz_ = &m.gauge("alg2_bandwidth_hz");
  signal_direction_ = &m.gauge("alg2_signal_direction");
}

void Profiler::record_vdp_makespan(VdpPlacement placement, double seconds) {
  const auto it = vdp_times_.find(placement);
  if (it == vdp_times_.end()) {
    vdp_times_[placement] = seconds;
  } else {
    it->second = config_.ema_alpha * seconds + (1.0 - config_.ema_alpha) * it->second;
  }
  telemetry::Histogram* h =
      placement == VdpPlacement::kLocal ? vdp_local_s_ : vdp_remote_s_;
  if (h != nullptr) h->observe(seconds);
}

std::optional<double> Profiler::vdp_makespan(VdpPlacement placement) const {
  const auto it = vdp_times_.find(placement);
  if (it == vdp_times_.end()) return std::nullopt;
  return it->second;
}

NetworkObservation Profiler::observe(double now) {
  NetworkObservation obs;
  obs.bandwidth_hz = bandwidth_.rate(now);
  obs.signal_direction = direction_.direction();
  if (bandwidth_hz_ != nullptr) {
    bandwidth_hz_->set(obs.bandwidth_hz);
    signal_direction_->set(obs.signal_direction);
  }
  return obs;
}

}  // namespace lgv::core
