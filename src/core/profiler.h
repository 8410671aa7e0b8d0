// The Profiler thread of the ROBOT/WORKER system modules (§VII): collects the
// data Algorithms 1 and 2 decide on — per-node processing times (EMA), VDP
// makespans per placement, RTT, receive-side bandwidth, and signal direction.
#pragma once

#include <map>
#include <optional>

#include "common/telemetry/telemetry.h"
#include "core/network_quality.h"
#include "core/node_classifier.h"
#include "net/meters.h"
#include "platform/platform_spec.h"

namespace lgv::core {

struct ProfilerConfig {
  double ema_alpha = 0.3;          ///< smoothing of time estimates
  double bandwidth_window_s = 1.0; ///< Algorithm 2's observation window
  size_t direction_history = 10;   ///< positions used by the direction estimate
};

class Profiler {
 public:
  Profiler(ProfilerConfig config, Point2D wap_position);

  // ---- processing times ----
  void record_node_time(NodeId node, platform::Host host, double seconds);
  /// Smoothed processing time of `node` on `host`; nullopt if never observed.
  std::optional<double> node_time(NodeId node, platform::Host host) const;

  /// Record a full VDP makespan under the given placement (local: sum of
  /// local node times; remote: cloud times + RTT — §VII's Profiler protocol).
  void record_vdp_makespan(VdpPlacement placement, double seconds);
  std::optional<double> vdp_makespan(VdpPlacement placement) const;
  /// Forget one placement's makespan profile. A committed pool failover calls
  /// this for kRemote: the samples were measured against the dead pool and
  /// would otherwise veto re-offloading onto the healthy standby forever.
  void reset_vdp_makespan(VdpPlacement placement) { vdp_times_.erase(placement); }

  /// Mirror the profiler's observables into `telemetry`: the RTT histogram
  /// (`net_rtt_ms`), VDP makespan histograms per placement, and the r_t/d_t
  /// gauges Algorithm 2 reads. nullptr disconnects.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // ---- network ----
  void record_rtt(double sent_at, double received_at) {
    rtt_.on_response(sent_at, received_at);
    if (rtt_ms_ != nullptr) rtt_ms_->observe((received_at - sent_at) * 1e3);
  }
  std::optional<double> rtt() const { return rtt_.latest(); }
  void on_stream_packet(double now) { bandwidth_.on_packet(now); }
  void on_robot_position(const Point2D& p) { direction_.on_position(p); }

  /// Snapshot for Algorithm 2.
  NetworkObservation observe(double now);

 private:
  ProfilerConfig config_;
  std::map<std::pair<NodeId, platform::Host>, double> node_times_;
  std::map<VdpPlacement, double> vdp_times_;
  net::RttMeter rtt_;
  net::BandwidthMeter bandwidth_;
  net::SignalDirectionEstimator direction_;

  // Telemetry handles (null when disconnected).
  telemetry::Histogram* rtt_ms_ = nullptr;
  telemetry::Histogram* vdp_local_s_ = nullptr;
  telemetry::Histogram* vdp_remote_s_ = nullptr;
  telemetry::Gauge* bandwidth_hz_ = nullptr;
  telemetry::Gauge* signal_direction_ = nullptr;
};

}  // namespace lgv::core
