#include "core/switcher.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <string_view>

#include "common/crc32c.h"
#include "common/serialization.h"

namespace lgv::core {

namespace {

void store_u16(std::vector<uint8_t>& b, size_t at, uint16_t v) {
  b[at] = static_cast<uint8_t>(v & 0xFF);
  b[at + 1] = static_cast<uint8_t>(v >> 8);
}
void store_u32(std::vector<uint8_t>& b, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
}
uint16_t load_u16(const std::vector<uint8_t>& b, size_t at) {
  return static_cast<uint16_t>(b[at] | (b[at + 1] << 8));
}
uint32_t load_u32(const std::vector<uint8_t>& b, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(b[at + i]) << (8 * i);
  return v;
}

// Envelope body carried inside a frame: topic, destination node, payload.
std::vector<uint8_t> pack_envelope(const std::string& topic, const std::string& dst,
                                   const std::vector<uint8_t>& payload) {
  WireWriter w;
  w.put_string(topic);
  w.put_string(dst);
  w.put_varint(payload.size());
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

struct Envelope {
  std::string topic;
  std::string dst;
  std::vector<uint8_t> payload;
};

Envelope unpack_envelope(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  Envelope e;
  e.topic = r.get_string();
  e.dst = r.get_string();
  const size_t n = r.get_varint();
  e.payload = r.get_raw(n);
  return e;
}

/// Flip one random bit in each byte selected by an independent per-byte
/// Bernoulli(p); geometric gap sampling, cost proportional to flips. The
/// migration path uses this to damage its chunk frames the same way the
/// links damage datagrams.
void flip_random_bits(std::vector<uint8_t>& bytes, double p, Rng& rng) {
  if (p <= 0.0 || bytes.empty()) return;
  std::geometric_distribution<size_t> gap(p);
  for (size_t i = gap(rng.engine()); i < bytes.size(); i += 1 + gap(rng.engine())) {
    bytes[i] ^= static_cast<uint8_t>(1u << rng.uniform_int(0, 7));
  }
}

// The CRC covers bytes [0,14) — everything before the CRC field — continued
// over bytes [18, end): the trace ids, the session id (v3) and the payload.
// One formula for both versions, and the trace context is
// integrity-protected.
uint32_t frame_crc(const std::vector<uint8_t>& frame) {
  constexpr size_t kCrcEnd = 18;  ///< first byte after the CRC field
  const uint32_t crc_header = crc32c(frame.data(), 14);
  return crc32c(frame.data() + kCrcEnd, frame.size() - kCrcEnd, crc_header);
}

constexpr uint16_t kMigrationTopicId = 0xFFFF;
constexpr uint8_t kDirUplink = 0;
constexpr uint8_t kDirDownlink = 1;
constexpr uint8_t kDirControl = 2;

}  // namespace

std::vector<uint8_t> frame_wrap(uint8_t direction, uint16_t topic_id,
                                uint32_t seq, const std::vector<uint8_t>& payload,
                                uint32_t trace_id, uint32_t span_id,
                                uint16_t session_id) {
  // Session 0 emits v2 so single-vehicle traffic stays byte-identical to the
  // previous wire format (golden-frame compatibility); a fleet's nonzero
  // sessions ride the two extra v3 bytes.
  const bool v3 = session_id != 0;
  const size_t header = v3 ? kFrameHeaderSizeV3 : kFrameHeaderSize;
  std::vector<uint8_t> f(header + payload.size());
  store_u16(f, 0, kFrameMagic);
  f[2] = v3 ? kFrameVersion : uint8_t{2};
  f[3] = direction;
  store_u16(f, 4, topic_id);
  store_u32(f, 6, seq);
  store_u32(f, 10, static_cast<uint32_t>(payload.size()));
  store_u32(f, 18, trace_id);
  store_u32(f, 22, span_id);
  if (v3) store_u16(f, 26, session_id);
  std::copy(payload.begin(), payload.end(), f.begin() + header);
  store_u32(f, 14, frame_crc(f));
  return f;
}

const char* frame_check(const std::vector<uint8_t>& frame) {
  if (frame.size() < kFrameHeaderSize) return "runt";
  if (load_u16(frame, 0) != kFrameMagic) return "bad_magic";
  const uint8_t version = frame[2];
  if (version < 2 || version > kFrameVersion) return "bad_version";
  const size_t header = version == 2 ? kFrameHeaderSize : kFrameHeaderSizeV3;
  if (frame.size() < header) return "runt";
  if (load_u32(frame, 10) != frame.size() - header) {
    return "length_mismatch";
  }
  if (load_u32(frame, 14) != frame_crc(frame)) return "crc";
  return nullptr;
}

uint32_t frame_seq(const std::vector<uint8_t>& frame) { return load_u32(frame, 6); }

size_t frame_header_size(const std::vector<uint8_t>& frame) {
  return frame.size() <= 2 || frame[2] == 2 ? kFrameHeaderSize : kFrameHeaderSizeV3;
}

uint32_t frame_trace_id(const std::vector<uint8_t>& frame) { return load_u32(frame, 18); }

uint32_t frame_span_id(const std::vector<uint8_t>& frame) { return load_u32(frame, 22); }

uint16_t frame_session_id(const std::vector<uint8_t>& frame) {
  return frame_header_size(frame) == kFrameHeaderSizeV3 ? load_u16(frame, 26) : 0;
}

Switcher::Switcher(mw::Graph* graph, net::WirelessChannel* channel, const SimClock* clock,
                   sim::EnergyMeter* energy, const sim::PowerModel* power,
                   size_t kernel_buffer_capacity)
    : graph_(graph),
      channel_(channel),
      clock_(clock),
      energy_(energy),
      power_(power),
      uplink_(channel, kernel_buffer_capacity),
      downlink_(channel, kernel_buffer_capacity),
      control_(channel) {}

void Switcher::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry != nullptr && telemetry->enabled() ? telemetry : nullptr;
  if (telemetry_ == nullptr) {
    uplink_bytes_total_ = nullptr;
    downlink_bytes_total_ = nullptr;
    migrations_total_ = nullptr;
    return;
  }
  uplink_.set_telemetry(telemetry_, "uplink");
  downlink_.set_telemetry(telemetry_, "downlink");
  control_.set_telemetry(telemetry_, "control");
  auto& m = telemetry_->metrics();
  uplink_bytes_total_ = &m.counter("switcher_bytes_total", {{"dir", "uplink"}});
  downlink_bytes_total_ = &m.counter("switcher_bytes_total", {{"dir", "downlink"}});
  migrations_total_ = &m.counter("switcher_state_migrations_total");
}

uint16_t Switcher::topic_id(const std::string& topic) {
  const auto it = topic_ids_.find(topic);
  if (it != topic_ids_.end()) return it->second;
  // kMigrationTopicId is reserved for the state-transfer stream.
  const auto id = static_cast<uint16_t>(topic_ids_.size());
  topic_ids_.emplace(topic, id);
  return id;
}

void Switcher::send(const mw::TopicName& topic, const mw::NodeName& dst,
                    platform::Host src_host, platform::Host dst_host,
                    std::vector<uint8_t> bytes) {
  (void)dst_host;
  const double now = clock_->now();
  stats_.max_message_bytes =
      std::max(stats_.max_message_bytes, static_cast<double>(bytes.size()));
  const bool up = src_host == platform::Host::kLgv;
  const uint8_t dir = up ? kDirUplink : kDirDownlink;
  const uint16_t tid = topic_id(topic);
  const uint64_t key = (static_cast<uint64_t>(session_id_) << 32) |
                       (static_cast<uint64_t>(dir) << 16) | tid;
  // The sender's TraceContext rides the frame header so the receiving host
  // re-enters the same trace on delivery.
  telemetry::TraceContext ctx;
  if (telemetry_ != nullptr) ctx = telemetry_->tracer().current();
  std::vector<uint8_t> frame =
      frame_wrap(dir, tid, next_seq_[key]++, pack_envelope(topic, dst, bytes),
                 ctx.trace_id, ctx.span_id, session_id_);
  if (up) {
    ++stats_.uplink_messages;
    stats_.uplink_bytes += static_cast<double>(frame.size());
    if (uplink_bytes_total_ != nullptr) uplink_bytes_total_->inc(frame.size());
    // Eq. 1b: uplink transmission costs the wireless controller energy.
    if (energy_ != nullptr) {
      energy_->add_wireless_energy(power_->transmission_energy(
          static_cast<double>(frame.size()), channel_->effective_uplink_bps()));
    }
    uplink_.send(std::move(frame), now);
  } else {
    ++stats_.downlink_messages;
    stats_.downlink_bytes += static_cast<double>(frame.size());
    if (downlink_bytes_total_ != nullptr) downlink_bytes_total_->inc(frame.size());
    downlink_.send(std::move(frame), now);
  }
}

void Switcher::reject_frame(const char* cause, uint64_t* counter) {
  ++stats_.frames_rejected;
  ++*counter;
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("net_frames_rejected_total", {{"cause", cause}}).inc();
    telemetry_->tracer().instant_now("integrity.reject", "network", "switcher",
                                     {{"cause", cause}});
    // Post-mortem hook: the first reject of a run snapshots the flight
    // recorder (repeat triggers are no-ops inside dump_flight).
    telemetry_->dump_flight("integrity_reject");
  }
}

void Switcher::deliver(const net::Packet& packet) {
  const std::vector<uint8_t>& b = packet.payload;
  if (const char* cause = frame_check(b)) {
    const std::string_view c(cause);
    uint64_t* counter = c == "runt"             ? &stats_.rejected_runt
                        : c == "bad_magic"      ? &stats_.rejected_magic
                        : c == "bad_version"    ? &stats_.rejected_version
                        : c == "length_mismatch" ? &stats_.rejected_length
                                                 : &stats_.rejected_crc;
    reject_frame(cause, counter);
    return;
  }
  const size_t header = frame_header_size(b);
  // The session term keeps each vehicle's stream independently sequenced: in
  // a fleet, vehicle 2's seq-5 scan must not dedupe against vehicle 1's.
  const uint64_t key = (static_cast<uint64_t>(frame_session_id(b)) << 32) |
                       (static_cast<uint64_t>(b[3]) << 16) | load_u16(b, 4);
  const uint32_t seq = frame_seq(b);
  const auto seen = last_delivered_seq_.find(key);
  if (seen != last_delivered_seq_.end()) {
    if (seq == seen->second) {
      reject_frame("duplicate", &stats_.rejected_duplicate);
      return;
    }
    if (seq < seen->second) {
      // Valid but older than what the subscriber already has: freshness over
      // reliability — a reordered scan must never overwrite a newer one.
      ++stats_.stale_dropped;
      if (telemetry_ != nullptr) {
        telemetry_->metrics().counter("msg_stale_dropped_total").inc();
        telemetry_->tracer().instant_now("integrity.reject", "network", "switcher",
                                         {{"cause", "stale"}});
      }
      return;
    }
  }
  // Re-enter the sender's trace for everything this delivery causes: the
  // wire spans below and the subscriber enqueue both parent under the span
  // that published the message on the other host. A frame without context
  // (sent outside a trace) deliberately clears the ambient context so
  // unrelated work is not stitched in.
  telemetry::Tracer* tracer = telemetry_ != nullptr ? &telemetry_->tracer() : nullptr;
  telemetry::ScopedTraceContext scope(
      tracer, telemetry::TraceContext{frame_trace_id(b), frame_span_id(b)});
  if (tracer != nullptr) {
    const uint8_t dir = b[3];
    const char* lane = dir == kDirUplink     ? "uplink"
                       : dir == kDirDownlink ? "downlink"
                                             : "control";
    const double now = clock_->now();
    // Kernel-buffer dwell and air time as separate spans, so the critical
    // path can tell queueing from propagation.
    if (packet.air_time > packet.send_time) {
      tracer->span("net.queue", "network", lane, packet.send_time,
                   packet.air_time - packet.send_time);
    }
    const double air_start = std::max(packet.send_time, packet.air_time);
    const uint32_t wire_id =
        tracer->span("net.wire", "network", lane, air_start, now - air_start,
                     {{"bytes", b.size()}});
    if (wire_id != 0) {
      tracer->set_current(telemetry::TraceContext{frame_trace_id(b), wire_id});
    }
  }
  // Hardened decode boundary: a frame that passed its CRC can still carry an
  // envelope this build can't decode (version skew, message-schema bug);
  // that's a counted drop, never an exception escaping the network stack.
  try {
    const Envelope e = unpack_envelope(b.data() + header, b.size() - header);
    if (e.topic == "__stream__") {
      if (stream_callback_) stream_callback_(packet.send_time, clock_->now());
    } else {
      graph_->deliver_serialized(e.topic, e.dst, e.payload);
    }
  } catch (const std::exception&) {
    reject_frame("decode", &stats_.rejected_decode);
    return;
  }
  last_delivered_seq_[key] = seq;
}

void Switcher::step() {
  const double now = clock_->now();
  uplink_.step(now);
  downlink_.step(now);
  control_.step(now);
  for (const net::Packet& p : uplink_.poll_delivered(now)) deliver(p);
  for (const net::Packet& p : downlink_.poll_delivered(now)) deliver(p);
  for (const net::Packet& p : control_.poll_delivered(now)) deliver(p);
}

MigrationResult Switcher::migrate_state(double bytes, bool uplink, const char* mode) {
  ++stats_.state_migrations;
  if (std::strcmp(mode, "failover") == 0) ++stats_.failover_migrations;
  stats_.state_migration_bytes += bytes;
  const double now = clock_->now();
  // Reliable transfer at the effective rate of the direction the bytes
  // actually travel — LGV→cloud state push on the uplink, cloud→LGV pull-back
  // on the downlink; degraded links stretch it via the retry model.
  const double rate = std::max(1e5, uplink ? channel_->effective_uplink_bps()
                                           : channel_->effective_downlink_bps());
  const net::ChannelOverride& ov = channel_->override_state();
  const double truncate_p = std::clamp(ov.truncate_prob, 0.0, 1.0);

  // Small chunks keep the per-chunk CRC pass probability workable under a
  // corruption burst (at 1e-4/byte a 4 KB chunk still passes ~2/3 of tries);
  // a torn transfer costs bounded retransmissions, never torn state.
  constexpr size_t kChunk = 4096;
  constexpr int kMaxChunkTries = 8;
  constexpr double kCommitTimeout = 30.0;  // virtual seconds, per attempt
  constexpr double kNakDelay = 0.02;       // receiver NAK + sender turnaround

  const auto total_bytes = static_cast<uint64_t>(std::max(0.0, bytes));
  const uint64_t n_chunks = std::max<uint64_t>(1, (total_bytes + kChunk - 1) / kChunk);

  MigrationResult result;
  result.chunks = n_chunks;

  // The transfer is simulated synchronously in virtual time: `t` advances
  // through every (re)transmission, so the returned completion honestly
  // includes the cost of the damage the wire faults inflicted.
  double t = now;
  for (int attempt = 1; attempt <= 2 && !result.committed; ++attempt) {
    result.attempts = attempt;
    const double attempt_start = t;
    t += channel_->sample_latency(1200);  // connection/handshake
    bool aborted = false;
    uint64_t remaining = total_bytes;
    for (uint64_t c = 0; c < n_chunks && !aborted; ++c) {
      const auto chunk_bytes = static_cast<size_t>(
          std::min<uint64_t>(kChunk, std::max<uint64_t>(remaining, 1)));
      remaining -= std::min<uint64_t>(remaining, chunk_bytes);
      // Genuinely build, frame, damage and verify each chunk — the CRC
      // verdict is computed from the bytes, not assumed from a probability.
      std::vector<uint8_t> payload(chunk_bytes);
      for (size_t i = 0; i < chunk_bytes; ++i) {
        payload[i] = static_cast<uint8_t>((c + i) & 0xFF);
      }
      bool ok = false;
      for (int tries = 0; tries < kMaxChunkTries && !ok && !aborted; ++tries) {
        std::vector<uint8_t> frame =
            frame_wrap(kDirControl, kMigrationTopicId, static_cast<uint32_t>(c), payload);
        t += static_cast<double>(frame.size()) * 8.0 / rate;
        if (uplink && energy_ != nullptr) {
          energy_->add_wireless_energy(
              power_->transmission_energy(static_cast<double>(frame.size()), rate));
        }
        if (truncate_p > 0.0 && rng_.bernoulli(truncate_p) && frame.size() > 1) {
          frame.resize(static_cast<size_t>(
              rng_.uniform_int(0, static_cast<int>(frame.size()) - 1)));
        }
        flip_random_bits(frame, ov.corrupt_bit_prob, rng_);
        ok = frame_check(frame) == nullptr;
        if (!ok) {
          ++result.chunk_retransmits;
          t += kNakDelay;
        }
        if (t - attempt_start > kCommitTimeout) aborted = true;  // commit timeout
      }
      if (!ok) aborted = true;
    }
    if (!aborted) {
      // Commit record: receiver's digest acknowledgment; the transfer only
      // counts once this round-trips intact.
      const std::vector<uint8_t> commit(64, 0xC3);
      bool ok = false;
      for (int tries = 0;
           tries < kMaxChunkTries && !ok && t - attempt_start <= kCommitTimeout;
           ++tries) {
        std::vector<uint8_t> frame =
            frame_wrap(kDirControl, kMigrationTopicId, 0xFFFFFFFFu, commit);
        t += static_cast<double>(frame.size()) * 8.0 / rate +
             channel_->sample_latency(frame.size());
        if (truncate_p > 0.0 && rng_.bernoulli(truncate_p) && frame.size() > 1) {
          frame.resize(static_cast<size_t>(
              rng_.uniform_int(0, static_cast<int>(frame.size()) - 1)));
        }
        flip_random_bits(frame, ov.corrupt_bit_prob, rng_);
        ok = frame_check(frame) == nullptr;
        if (!ok) {
          ++result.chunk_retransmits;
          t += kNakDelay;
        }
      }
      result.committed = ok;
    }
    if (!result.committed && attempt == 1) {
      t += 0.1;  // tear down + reconnect before the one retry
    }
  }
  if (!result.committed) ++stats_.migrations_aborted;
  result.completion = t;

  if (telemetry_ != nullptr) {
    migrations_total_->inc();
    telemetry_->metrics()
        .counter("migration_bytes_total", {{"mode", mode}})
        .inc(static_cast<uint64_t>(std::max(0.0, bytes)));
    if (!result.committed) {
      telemetry_->metrics().counter("switcher_migrations_aborted_total").inc();
    }
    // The migration freeze window as a span on the network lane.
    telemetry_->tracer().span(
        "switcher.migrate", "network", "switcher", now, t - now,
        {{"bytes", bytes},
         {"mode", mode},
         {"dir", uplink ? "uplink" : "downlink"},
         {"committed", result.committed ? "true" : "false"},
         {"chunks", result.chunks},
         {"chunk_retransmits", result.chunk_retransmits},
         {"attempts", result.attempts}});
  }
  return result;
}

void Switcher::send_stream_packet() {
  // 48 B velocity message (§III-A) as the fixed-rate measurement stream.
  const std::vector<uint8_t> payload(48, 0);
  const uint16_t tid = topic_id("__stream__");
  const uint64_t key = (static_cast<uint64_t>(session_id_) << 32) |
                       (static_cast<uint64_t>(kDirDownlink) << 16) | tid;
  telemetry::TraceContext ctx;
  if (telemetry_ != nullptr) ctx = telemetry_->tracer().current();
  std::vector<uint8_t> frame =
      frame_wrap(kDirDownlink, tid, next_seq_[key]++,
                 pack_envelope("__stream__", "lgv", payload), ctx.trace_id,
                 ctx.span_id, session_id_);
  ++stats_.downlink_messages;
  stats_.downlink_bytes += static_cast<double>(frame.size());
  if (downlink_bytes_total_ != nullptr) downlink_bytes_total_->inc(frame.size());
  downlink_.send(std::move(frame), clock_->now());
}

}  // namespace lgv::core
