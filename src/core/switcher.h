// The Switcher threads of §VII: maintain data communication between worker
// nodes on the LGV and on the remote server. Implements the middleware's
// RemoteTransport over the emulated wireless link — messages are serialized
// (the paper uses protobuf; we use the equivalent wire format in
// common/serialization.h), wrapped in a checksummed, sequenced frame
// (docs/wire-format.md), and shipped over UDP with one-length queues; state
// migration rides the reliable TCP link as a chunked, per-chunk-CRC'd
// transfer with an explicit commit record. Uplink transmissions charge
// Eq. 1b energy to the wireless controller.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/telemetry/telemetry.h"
#include "middleware/graph.h"
#include "net/link.h"
#include "net/wireless_channel.h"
#include "sim/power.h"

namespace lgv::core {

// ---- wire frame (docs/wire-format.md) --------------------------------------
// Every datagram the Switcher puts on the air is (v3)
//   [magic u16][version u8][direction u8][topic_id u16][seq u32]
//   [payload_len u32][crc32c u32][trace_id u32][span_id u32][session_id u16]
//   [payload ...]
// all little-endian. The trace_id/span_id pair propagates the sender's
// TraceContext so the receiver's work stitches into the same span DAG; the
// session_id names the *vehicle* the frame belongs to, so a shared worker
// serving a fleet sequences each vehicle's stream independently (two
// vehicles' frames for the same topic must never dedupe against each other).
// The CRC32C covers bytes [0,14) plus everything after the CRC field — i.e.
// the trace ids, the session id AND the payload — so any bit the channel
// flips fails the check.
// A v2 frame (26-byte header, no session id) decodes as session 0, and
// frame_wrap emits v2 when session_id == 0, so single-vehicle deployments
// produce byte-identical frames to the previous build. Any other version
// byte is rejected.
inline constexpr uint16_t kFrameMagic = 0x4C57;  ///< "WL" on the wire
inline constexpr uint8_t kFrameVersion = 3;
inline constexpr size_t kFrameHeaderSizeV3 = 28;
inline constexpr size_t kFrameHeaderSize = 26;  ///< v2 (and the session-0 emission)

/// Wrap `payload` in a frame header + CRC, stamping the sender's trace
/// context (0/0 = no active trace) and session (vehicle) id. session_id == 0
/// emits a v2 frame (no session field — byte-identical to the previous
/// format); nonzero emits v3. Exposed for tests and the migration path;
/// normal traffic goes through Switcher::send.
std::vector<uint8_t> frame_wrap(uint8_t direction, uint16_t topic_id,
                                uint32_t seq, const std::vector<uint8_t>& payload,
                                uint32_t trace_id = 0, uint32_t span_id = 0,
                                uint16_t session_id = 0);

/// Integrity-check a received frame (v2 or v3). Returns nullptr when the
/// frame is intact, else the rejection cause label ("runt", "bad_magic",
/// "bad_version", "length_mismatch", "crc") used for
/// net_frames_rejected_total{cause=...}.
const char* frame_check(const std::vector<uint8_t>& frame);

/// Read the sequence number of a verified frame.
uint32_t frame_seq(const std::vector<uint8_t>& frame);

/// Header size of a verified frame: kFrameHeaderSize for v2,
/// kFrameHeaderSizeV3 otherwise. The payload starts here.
size_t frame_header_size(const std::vector<uint8_t>& frame);

/// Trace context of a verified frame.
uint32_t frame_trace_id(const std::vector<uint8_t>& frame);
uint32_t frame_span_id(const std::vector<uint8_t>& frame);

/// Session (vehicle) id of a verified frame; 0 for v2 frames.
uint16_t frame_session_id(const std::vector<uint8_t>& frame);

/// Outcome of a chunked state migration over the reliable control link.
struct MigrationResult {
  double completion = 0.0;  ///< virtual time the node may unfreeze / abort time
  bool committed = false;   ///< receiver verified every chunk + commit record
  uint64_t chunks = 0;
  uint64_t chunk_retransmits = 0;  ///< chunk sends that failed their CRC
  int attempts = 0;                ///< whole-transfer attempts (1 or 2)
};

struct SwitcherStats {
  uint64_t uplink_messages = 0;
  uint64_t downlink_messages = 0;
  double uplink_bytes = 0.0;
  double downlink_bytes = 0.0;
  uint64_t state_migrations = 0;
  uint64_t migrations_aborted = 0;  ///< both attempts failed; placement reverts
  /// Subset of state_migrations: failover snapshots shipped to a standby
  /// WorkerPool's host before re-admitting there (mode == "failover").
  uint64_t failover_migrations = 0;
  double state_migration_bytes = 0.0;
  double max_message_bytes = 0.0;  ///< the paper reports 2.94 KB (laser scan)

  // Wire-integrity rejections at deliver() (docs/wire-format.md). A frame is
  // dropped, never partially applied; frames_rejected is the sum of the
  // per-cause counters below it.
  uint64_t frames_rejected = 0;
  uint64_t rejected_runt = 0;       ///< shorter than the frame header
  uint64_t rejected_magic = 0;
  uint64_t rejected_version = 0;
  uint64_t rejected_length = 0;     ///< payload_len disagrees with the datagram
  uint64_t rejected_crc = 0;
  uint64_t rejected_decode = 0;     ///< envelope/message decode threw
  uint64_t rejected_duplicate = 0;  ///< seq already delivered
  /// Valid frame older than the newest delivered on its (topic, direction):
  /// dropped so stale data never overwrites fresh (freshness over
  /// reliability). Counted in msg_stale_dropped_total, not frames_rejected.
  uint64_t stale_dropped = 0;
};

class Switcher final : public mw::RemoteTransport {
 public:
  Switcher(mw::Graph* graph, net::WirelessChannel* channel, const SimClock* clock,
           sim::EnergyMeter* energy, const sim::PowerModel* power,
           size_t kernel_buffer_capacity = 4);

  // mw::RemoteTransport — called by the Graph for cross-host publications.
  void send(const mw::TopicName& topic, const mw::NodeName& dst,
            platform::Host src_host, platform::Host dst_host,
            std::vector<uint8_t> bytes) override;

  /// Advance links and deliver everything that arrived by now. Frames that
  /// fail the integrity check are dropped and counted — corrupt bytes never
  /// reach the Graph.
  void step();

  /// Migrate `bytes` of node state (e.g. particle set + map) over TCP as
  /// ~4 KB chunks, each framed and CRC-checked against the scripted wire
  /// faults active on the channel. A damaged chunk is retransmitted (bounded
  /// retries); an attempt that exhausts retries or overruns the commit
  /// timeout is aborted and the whole transfer retried once. The result says
  /// whether the transfer committed — on abort the caller must keep (or
  /// revert to) the local replica, never run on a torn particle set.
  /// `mode` labels what the payload encoding was ("full" or "delta") for
  /// migration_bytes_total{mode=...} and the trace span.
  MigrationResult migrate_state(double bytes, bool uplink, const char* mode = "full");

  /// Send a 48 B measurement-stream packet (velocity message or probe) on the
  /// downlink; Profiler bandwidth is counted on arrival via the callback,
  /// which receives (send_time, arrival_time).
  void send_stream_packet();
  void set_stream_callback(std::function<void(double sent, double now)> cb) {
    stream_callback_ = std::move(cb);
  }

  const SwitcherStats& stats() const { return stats_; }
  net::UdpLink& uplink() { return uplink_; }
  net::UdpLink& downlink() { return downlink_; }
  net::TcpLink& control_link() { return control_; }

  /// Session (vehicle) id stamped on every frame this Switcher sends. 0 (the
  /// default) keeps the single-vehicle v2 emission; a fleet gives each
  /// vehicle's Switcher a distinct nonzero id so a shared worker sequences
  /// the streams independently.
  void set_session_id(uint16_t id) { session_id_ = id; }
  uint16_t session_id() const { return session_id_; }

  /// Wire the three links' `net_*` metrics ({link=uplink|downlink|control})
  /// plus switcher byte counters, reject counters
  /// (net_frames_rejected_total{cause}, msg_stale_dropped_total with an
  /// `integrity.reject` trace instant per drop), and emit a
  /// `switcher.migrate` span per state migration. nullptr disconnects.
  void set_telemetry(telemetry::Telemetry* telemetry);

 private:
  void deliver(const net::Packet& packet);
  /// Count a rejected frame under `cause` (metric + trace instant);
  /// `counter` is the matching per-cause SwitcherStats field.
  void reject_frame(const char* cause, uint64_t* counter);
  uint16_t topic_id(const std::string& topic);

  mw::Graph* graph_;
  net::WirelessChannel* channel_;
  const SimClock* clock_;
  sim::EnergyMeter* energy_;
  const sim::PowerModel* power_;
  net::UdpLink uplink_;    ///< LGV → remote (scans; large)
  net::UdpLink downlink_;  ///< remote → LGV (velocities, poses; small)
  net::TcpLink control_;   ///< reliable control/state channel
  SwitcherStats stats_;
  std::function<void(double, double)> stream_callback_;

  std::map<std::string, uint16_t> topic_ids_;
  /// Per (session_id << 32 | direction << 16 | topic_id): next seq to stamp /
  /// newest delivered. The session term keeps a fleet's streams independent —
  /// vehicle 2's seq-5 scan must not look like a duplicate of vehicle 1's.
  std::map<uint64_t, uint32_t> next_seq_;
  std::map<uint64_t, uint32_t> last_delivered_seq_;
  uint16_t session_id_ = 0;

  Rng rng_{0x519a};  ///< drives migration-chunk damage simulation

  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter* uplink_bytes_total_ = nullptr;
  telemetry::Counter* downlink_bytes_total_ = nullptr;
  telemetry::Counter* migrations_total_ = nullptr;
};

}  // namespace lgv::core
