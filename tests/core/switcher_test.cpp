#include "core/switcher.h"

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/serialization.h"
#include "msg/messages.h"

namespace lgv::core {
namespace {

using platform::Host;

class SwitcherTest : public ::testing::Test {
 protected:
  SwitcherTest()
      : channel(make_channel()),
        switcher(&graph, &channel, &clock, &energy, &power) {
    graph.register_node("lgv_node", Host::kLgv);
    graph.register_node("cloud_node", Host::kCloudServer);
    graph.set_remote_transport(&switcher);
    channel.set_robot_position({2.0, 0.0});  // near the WAP: clean link
  }

  static net::WirelessChannel make_channel() {
    net::ChannelConfig cfg;
    cfg.wap_position = {0.0, 0.0};
    cfg.shadowing_sigma_db = 0.0;
    return net::WirelessChannel(cfg);
  }

  void pump_until(double t_end, double dt = 0.005) {
    while (clock.now() < t_end) {
      clock.advance(dt);
      switcher.step();
      graph.spin();
    }
  }

  SimClock clock;
  mw::Graph graph;
  net::WirelessChannel channel;
  sim::PowerModel power;
  sim::EnergyMeter energy;
  Switcher switcher;
};

TEST_F(SwitcherTest, UplinkMessageArrivesWithLatency) {
  auto pub = graph.advertise<msg::TwistMsg>("lgv_node", "cmd");
  double received_at = -1.0;
  graph.subscribe<msg::TwistMsg>("cloud_node", "cmd", [&](const msg::TwistMsg&) {
    received_at = clock.now();
  });
  msg::TwistMsg t;
  t.velocity.linear = 0.4;
  pub.publish(t);
  graph.spin();
  EXPECT_LT(received_at, 0.0);  // not yet
  pump_until(0.5);
  EXPECT_GT(received_at, 0.0);
  EXPECT_LT(received_at, 0.1);  // a few ms of wireless latency
  EXPECT_EQ(switcher.stats().uplink_messages, 1u);
}

TEST_F(SwitcherTest, DownlinkDirectionCounted) {
  auto pub = graph.advertise<msg::TwistMsg>("cloud_node", "cmd_back");
  int got = 0;
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back",
                                 [&](const msg::TwistMsg&) { ++got; });
  pub.publish({});
  graph.spin();
  pump_until(0.5);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(switcher.stats().downlink_messages, 1u);
  EXPECT_EQ(switcher.stats().uplink_messages, 0u);
}

TEST_F(SwitcherTest, UplinkChargesEq1bEnergy) {
  auto pub = graph.advertise<msg::LaserScan>("lgv_node", "scan");
  graph.subscribe<msg::LaserScan>("cloud_node", "scan", [](const msg::LaserScan&) {});
  msg::LaserScan s;
  s.ranges.assign(360, 1.0f);
  const double before = energy.energy().wireless;
  pub.publish(s);
  EXPECT_GT(energy.energy().wireless, before);
}

TEST_F(SwitcherTest, DownlinkDoesNotChargeRobotEnergy) {
  // The paper ignores receive energy (§III-A).
  auto pub = graph.advertise<msg::TwistMsg>("cloud_node", "cmd_back");
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back", [](const msg::TwistMsg&) {});
  const double before = energy.energy().wireless;
  pub.publish({});
  EXPECT_DOUBLE_EQ(energy.energy().wireless, before);
}

TEST_F(SwitcherTest, MaxMessageBytesTracked) {
  auto pub = graph.advertise<msg::LaserScan>("lgv_node", "scan");
  graph.subscribe<msg::LaserScan>("cloud_node", "scan", [](const msg::LaserScan&) {});
  msg::LaserScan s;
  s.ranges.assign(360, 1.0f);
  pub.publish(s);
  // ~360 × 4 B + header: the paper's "2.94 KB laser scan" territory.
  EXPECT_GT(switcher.stats().max_message_bytes, 1400.0);
  EXPECT_LT(switcher.stats().max_message_bytes, 3200.0);
}

TEST_F(SwitcherTest, OutageDropsAtKernelBuffer) {
  channel.set_robot_position({500.0, 0.0});  // outage
  auto pub = graph.advertise<msg::TwistMsg>("lgv_node", "cmd");
  int got = 0;
  graph.subscribe<msg::TwistMsg>("cloud_node", "cmd", [&](const msg::TwistMsg&) { ++got; });
  for (int i = 0; i < 10; ++i) {
    pub.publish({});
    clock.advance(0.2);
    switcher.step();
  }
  graph.spin();
  EXPECT_EQ(got, 0);
  EXPECT_GT(switcher.uplink().stats().dropped_buffer, 0u);
}

TEST_F(SwitcherTest, StreamPacketsReachCallback) {
  int received = 0;
  double last_sent = -1.0;
  switcher.set_stream_callback([&](double sent, double now) {
    ++received;
    last_sent = sent;
    EXPECT_GE(now, sent);
  });
  for (int i = 0; i < 5; ++i) {
    switcher.send_stream_packet();
    pump_until(clock.now() + 0.2);
  }
  EXPECT_EQ(received, 5);
  EXPECT_GE(last_sent, 0.0);
}

TEST_F(SwitcherTest, StateMigrationReturnsFutureCompletion) {
  const double t0 = clock.now();
  const MigrationResult mig = switcher.migrate_state(500e3, /*uplink=*/true);
  EXPECT_GT(mig.completion, t0);
  EXPECT_TRUE(mig.committed);  // clean link: first attempt commits
  EXPECT_EQ(mig.attempts, 1);
  EXPECT_EQ(mig.chunk_retransmits, 0u);
  EXPECT_EQ(mig.chunks, (500000u + 4095u) / 4096u);
  EXPECT_EQ(switcher.stats().state_migrations, 1u);
  EXPECT_EQ(switcher.stats().migrations_aborted, 0u);
  EXPECT_DOUBLE_EQ(switcher.stats().state_migration_bytes, 500e3);
  EXPECT_GT(energy.energy().wireless, 0.0);  // uplink migration costs energy
}

TEST_F(SwitcherTest, MigrationSlowerOnWeakLink) {
  const double fast = switcher.migrate_state(500e3, false).completion - clock.now();
  channel.set_robot_position({60.0, 0.0});  // weak but connected
  const double slow = switcher.migrate_state(500e3, false).completion - clock.now();
  EXPECT_GT(slow, fast);
}

TEST_F(SwitcherTest, MigrationRetransmitsThroughModerateCorruption) {
  // ~1e-5/byte: each 4 KB chunk fails its CRC a few percent of the time, so
  // the transfer pays retransmissions but still commits.
  net::ChannelOverride ov;
  ov.corrupt_bit_prob = 1e-5;
  channel.set_override(ov);
  const MigrationResult mig = switcher.migrate_state(2e6, /*uplink=*/true);
  EXPECT_TRUE(mig.committed);
  EXPECT_GT(mig.chunk_retransmits, 0u);
  EXPECT_EQ(switcher.stats().migrations_aborted, 0u);
}

TEST_F(SwitcherTest, MigrationAbortsCleanlyUnderHeavyCorruption) {
  // At 1e-2/byte essentially no 4 KB chunk can pass its CRC: both attempts
  // must fail, and the caller gets a clean abort — never a torn commit.
  net::ChannelOverride ov;
  ov.corrupt_bit_prob = 1e-2;
  channel.set_override(ov);
  const double t0 = clock.now();
  const MigrationResult mig = switcher.migrate_state(500e3, /*uplink=*/false);
  EXPECT_FALSE(mig.committed);
  EXPECT_EQ(mig.attempts, 2);
  EXPECT_GT(mig.chunk_retransmits, 0u);
  EXPECT_GT(mig.completion, t0);  // the failed attempts still cost time
  EXPECT_EQ(switcher.stats().migrations_aborted, 1u);
}

TEST(SwitcherRates, DownlinkMigrationTimedAgainstDownlinkRate) {
  // A cloud→LGV state pull-back travels the AP's transmit pipe, not the
  // LGV's: with an asymmetric link the two directions must take visibly
  // different times for the same byte count.
  net::ChannelConfig cfg;
  cfg.wap_position = {0.0, 0.0};
  cfg.shadowing_sigma_db = 0.0;
  cfg.downlink_rate_bps = cfg.uplink_rate_bps / 4.0;
  net::WirelessChannel channel(cfg);
  channel.set_robot_position({2.0, 0.0});
  SimClock clock;
  mw::Graph graph;
  sim::PowerModel power;
  sim::EnergyMeter energy;
  Switcher sw(&graph, &channel, &clock, &energy, &power);
  const double up = sw.migrate_state(2e6, /*uplink=*/true).completion - clock.now();
  const double down = sw.migrate_state(2e6, /*uplink=*/false).completion - clock.now();
  EXPECT_GT(down, 2.5 * up);  // 4× slower pipe, minus the shared latency term
}

TEST_F(SwitcherTest, StreamPacketCarries48BytePayload) {
  switcher.send_stream_packet();
  // §III-A velocity message: 48 B payload plus the envelope (topic + dst +
  // length varint) and the 26 B integrity frame header.
  EXPECT_GE(switcher.stats().downlink_bytes, 48.0 + kFrameHeaderSize);
  EXPECT_LT(switcher.stats().downlink_bytes, 100.0);
  EXPECT_EQ(switcher.stats().downlink_messages, 1u);
}

TEST_F(SwitcherTest, StreamPacketsCountTowardDownlinkTelemetry) {
  telemetry::Telemetry telemetry;
  switcher.set_telemetry(&telemetry);
  for (int i = 0; i < 3; ++i) switcher.send_stream_packet();
  const double counted =
      telemetry.metrics().counter("switcher_bytes_total", {{"dir", "downlink"}}).value();
  EXPECT_DOUBLE_EQ(counted, switcher.stats().downlink_bytes);
  EXPECT_GT(counted, 0.0);
}

// ---- wire-integrity layer (docs/wire-format.md) ----------------------------

// Envelope body as the Switcher packs it (topic, dst, length-prefixed bytes).
std::vector<uint8_t> make_envelope(const std::string& topic, const std::string& dst,
                                   const std::vector<uint8_t>& payload) {
  WireWriter w;
  w.put_string(topic);
  w.put_string(dst);
  w.put_varint(payload.size());
  w.put_bytes(payload.data(), payload.size());
  return w.take();
}

TEST(WireFrame, RoundTripVerifies) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame = frame_wrap(1, 7, 42, payload);
  EXPECT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  EXPECT_EQ(frame_check(frame), nullptr);
  EXPECT_EQ(frame_seq(frame), 42u);
}

TEST(WireFrame, V2CarriesCrcProtectedTraceContext) {
  const std::vector<uint8_t> payload = {9, 8, 7};
  const std::vector<uint8_t> frame =
      frame_wrap(0, 2, 3, payload, /*trace_id=*/0xCAFE, /*span_id=*/0xBEEF);
  EXPECT_EQ(frame_check(frame), nullptr);
  EXPECT_EQ(frame_header_size(frame), kFrameHeaderSize);
  EXPECT_EQ(frame_trace_id(frame), 0xCAFEu);
  EXPECT_EQ(frame_span_id(frame), 0xBEEFu);

  // The causal ids are inside the checksum: a flipped id byte is a CRC
  // reject, never a silently mis-stitched trace.
  std::vector<uint8_t> flipped = frame;
  flipped[19] ^= 0x01;  // trace_id field
  EXPECT_STREQ(frame_check(flipped), "crc");
}

TEST(WireFrame, EveryRejectionCauseDetected) {
  const std::vector<uint8_t> payload(32, 0xAB);
  const std::vector<uint8_t> good = frame_wrap(0, 1, 1, payload);

  std::vector<uint8_t> tiny(4, 0);  // shorter than any header version
  EXPECT_STREQ(frame_check(tiny), "runt");

  // Valid magic + v2 version byte but one byte short of the v2 header.
  std::vector<uint8_t> runt(good.begin(), good.begin() + kFrameHeaderSize - 1);
  EXPECT_STREQ(frame_check(runt), "runt");

  std::vector<uint8_t> magic = good;
  magic[0] ^= 0xFF;
  EXPECT_STREQ(frame_check(magic), "bad_magic");

  std::vector<uint8_t> version = good;
  version[2] = kFrameVersion + 1;
  EXPECT_STREQ(frame_check(version), "bad_version");

  std::vector<uint8_t> truncated = good;
  truncated.resize(truncated.size() - 5);  // header intact, tail gone
  EXPECT_STREQ(frame_check(truncated), "length_mismatch");

  std::vector<uint8_t> flipped = good;
  flipped[kFrameHeaderSize + 3] ^= 0x10;  // single bit in the payload
  EXPECT_STREQ(frame_check(flipped), "crc");
}

TEST(WireFrame, V3CarriesSessionIdUnderCrc) {
  const std::vector<uint8_t> payload = {1, 2, 3};
  const std::vector<uint8_t> frame =
      frame_wrap(1, 7, 42, payload, 0xCAFE, 0xBEEF, /*session_id=*/17);
  EXPECT_EQ(frame.size(), kFrameHeaderSizeV3 + payload.size());
  EXPECT_EQ(frame_check(frame), nullptr);
  EXPECT_EQ(frame_header_size(frame), kFrameHeaderSizeV3);
  EXPECT_EQ(frame_session_id(frame), 17u);
  EXPECT_EQ(frame_seq(frame), 42u);
  EXPECT_EQ(frame_trace_id(frame), 0xCAFEu);  // v2 fields ride along

  // The session id is inside the checksum: a flipped session byte is a CRC
  // reject, never a frame silently delivered to the wrong vehicle's stream.
  std::vector<uint8_t> flipped = frame;
  flipped[26] ^= 0x01;  // session_id field
  EXPECT_STREQ(frame_check(flipped), "crc");
}

TEST(WireFrame, SessionZeroEmitsByteIdenticalV2) {
  // Wire compatibility: single-vehicle deployments (session 0) must produce
  // exactly the frames the previous build produced.
  const std::vector<uint8_t> payload = {4, 5, 6};
  const std::vector<uint8_t> frame = frame_wrap(0, 2, 3, payload, 0xA, 0xB);
  EXPECT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  EXPECT_EQ(frame[2], 2);  // v2 version byte
  EXPECT_EQ(frame_session_id(frame), 0u);
  EXPECT_EQ(frame_check(frame), nullptr);
}

TEST_F(SwitcherTest, DamagedFramesDroppedAndCounted) {
  int got = 0;
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back",
                                 [&](const msg::TwistMsg&) { ++got; });
  const auto env = make_envelope("cmd_back", "lgv_node",
                                 serialize_to_bytes(msg::TwistMsg{}));

  std::vector<uint8_t> crc_bad = frame_wrap(1, 3, 0, env);
  crc_bad[kFrameHeaderSize] ^= 0x01;
  switcher.downlink().send(std::move(crc_bad), clock.now());
  switcher.downlink().send({0xDE, 0xAD}, clock.now());  // runt
  pump_until(0.5);

  EXPECT_EQ(got, 0);  // corrupt bytes never reach the Graph
  EXPECT_EQ(switcher.stats().rejected_crc, 1u);
  EXPECT_EQ(switcher.stats().rejected_runt, 1u);
  EXPECT_EQ(switcher.stats().frames_rejected, 2u);
}

TEST_F(SwitcherTest, DuplicateAndStaleSequencesDropped) {
  int got = 0;
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back",
                                 [&](const msg::TwistMsg&) { ++got; });
  const auto env = make_envelope("cmd_back", "lgv_node",
                                 serialize_to_bytes(msg::TwistMsg{}));

  switcher.downlink().send(frame_wrap(1, 3, 5, env), clock.now());
  pump_until(clock.now() + 0.3);
  EXPECT_EQ(got, 1);

  // Same sequence again: the duplicated-datagram case.
  switcher.downlink().send(frame_wrap(1, 3, 5, env), clock.now());
  pump_until(clock.now() + 0.3);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(switcher.stats().rejected_duplicate, 1u);

  // Older sequence: a reordered straggler must not overwrite fresher data.
  switcher.downlink().send(frame_wrap(1, 3, 2, env), clock.now());
  pump_until(clock.now() + 0.3);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(switcher.stats().stale_dropped, 1u);

  // Newer sequence flows normally.
  switcher.downlink().send(frame_wrap(1, 3, 6, env), clock.now());
  pump_until(clock.now() + 0.3);
  EXPECT_EQ(got, 2);
}

TEST_F(SwitcherTest, SequencingIsPerSessionNotGlobal) {
  // The fleet-serving bug this PR fixes: two vehicles' streams share one
  // receiver. Their sequence counters are independent, so the same
  // (direction, topic, seq) from two *sessions* is two distinct messages —
  // the dedupe key must include the session id, or vehicle B's traffic is
  // rejected as vehicle A's duplicates.
  int got = 0;
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back",
                                 [&](const msg::TwistMsg&) { ++got; });
  const auto env = make_envelope("cmd_back", "lgv_node",
                                 serialize_to_bytes(msg::TwistMsg{}));

  // Interleave two sessions on the same topic with overlapping seq numbers
  // (pumping between sends so the emulated link can't reorder the corpus —
  // per-session ordering is what's under test, not link reordering).
  for (const auto& [seq, session] :
       {std::pair<uint32_t, uint16_t>{5, 1}, {5, 2}, {6, 1}, {6, 2}}) {
    switcher.downlink().send(frame_wrap(1, 3, seq, env, 0, 0, session), clock.now());
    pump_until(clock.now() + 0.3);
  }
  EXPECT_EQ(got, 4);
  EXPECT_EQ(switcher.stats().rejected_duplicate, 0u);
  EXPECT_EQ(switcher.stats().stale_dropped, 0u);

  // Within one session, dedupe still bites.
  switcher.downlink().send(frame_wrap(1, 3, 6, env, 0, 0, /*session=*/1), clock.now());
  pump_until(clock.now() + 0.3);
  EXPECT_EQ(got, 4);
  EXPECT_EQ(switcher.stats().rejected_duplicate, 1u);
}

TEST_F(SwitcherTest, SendStampsConfiguredSessionId) {
  // What Switcher::send puts on the air: each frame is taken off the uplink
  // before the Switcher's own step() can consume it.
  auto pub = graph.advertise<msg::TwistMsg>("lgv_node", "cmd");
  graph.subscribe<msg::TwistMsg>("cloud_node", "cmd", [](const msg::TwistMsg&) {});
  auto next_frame = [&]() -> std::vector<uint8_t> {
    pub.publish({});
    for (int i = 0; i < 100; ++i) {
      clock.advance(0.005);
      switcher.uplink().step(clock.now());
      std::vector<net::Packet> delivered = switcher.uplink().poll_delivered(clock.now());
      if (!delivered.empty()) return std::move(delivered.front().payload);
    }
    return {};
  };

  // Session 0 (a standalone vehicle) emits the v2 layout.
  EXPECT_EQ(switcher.session_id(), 0u);
  const std::vector<uint8_t> v2 = next_frame();
  ASSERT_EQ(frame_check(v2), nullptr);
  EXPECT_EQ(v2[2], 2);  // version byte
  EXPECT_EQ(frame_header_size(v2), kFrameHeaderSize);
  EXPECT_EQ(frame_session_id(v2), 0u);

  // A fleet session id switches the emission to v3, carrying the id.
  switcher.set_session_id(9);
  EXPECT_EQ(switcher.session_id(), 9u);
  const std::vector<uint8_t> v3 = next_frame();
  ASSERT_EQ(frame_check(v3), nullptr);
  EXPECT_EQ(v3[2], 3);
  EXPECT_EQ(frame_header_size(v3), kFrameHeaderSizeV3);
  EXPECT_EQ(frame_session_id(v3), 9u);
}

TEST_F(SwitcherTest, V1FramesRejectedAsBadVersion) {
  // The legacy layout: an 18-byte header without trace ids, its CRC over
  // bytes [0, 14) continued over the payload. No peer emits it any more, so
  // it is a version this build does not speak: dropped and counted, never
  // delivered.
  int got = 0;
  graph.subscribe<msg::TwistMsg>("lgv_node", "cmd_back",
                                 [&](const msg::TwistMsg&) { ++got; });
  const auto env = make_envelope("cmd_back", "lgv_node",
                                 serialize_to_bytes(msg::TwistMsg{}));
  const std::vector<uint8_t> v2 = frame_wrap(1, 3, 0, env);
  std::vector<uint8_t> v1(18 + env.size());
  std::copy(v2.begin(), v2.begin() + 18, v1.begin());
  std::copy(env.begin(), env.end(), v1.begin() + 18);
  v1[2] = 1;
  const uint32_t crc = crc32c(v1.data() + 18, env.size(), crc32c(v1.data(), 14));
  for (int b = 0; b < 4; ++b) v1[14 + b] = static_cast<uint8_t>(crc >> (8 * b));
  EXPECT_STREQ(frame_check(v1), "bad_version");

  switcher.downlink().send(v1, clock.now());
  pump_until(0.5);
  EXPECT_EQ(got, 0);
  EXPECT_EQ(switcher.stats().rejected_version, 1u);
  EXPECT_EQ(switcher.stats().frames_rejected, 1u);
}

TEST_F(SwitcherTest, WireDeliveryStitchesSenderContext) {
  // The uplink frame carries (trace_id, span_id); on delivery the receiver's
  // events — the wire span and the subscriber's callback work — join the
  // sender's trace as children instead of starting an orphaned one.
  telemetry::Telemetry telemetry;
  telemetry.set_clock(&clock);
  switcher.set_telemetry(&telemetry);
  graph.set_telemetry(&telemetry);

  auto pub = graph.advertise<msg::TwistMsg>("lgv_node", "cmd");
  graph.subscribe<msg::TwistMsg>("cloud_node", "cmd", [&](const msg::TwistMsg&) {
    telemetry.tracer().instant_now("remote.work", "cloud_server", "worker");
  });

  telemetry::Tracer& tracer = telemetry.tracer();
  const telemetry::TraceContext root = tracer.begin_trace();
  const uint32_t tick = tracer.instant_now("scan.tick", "lgv", "sensor");
  ASSERT_NE(tick, 0u);
  tracer.set_current({root.trace_id, tick});
  pub.publish({});
  graph.spin();
  tracer.set_current({});  // sender moves on; the frame carries the context
  pump_until(0.5);

  uint32_t wire_span = 0;
  const auto events = tracer.events();
  for (const auto& e : events) {
    if (e.name == "net.wire") {
      EXPECT_EQ(e.trace_id, root.trace_id);
      wire_span = e.span_id;
    }
  }
  ASSERT_NE(wire_span, 0u) << "no wire span recorded on delivery";
  bool remote_stitched = false;
  for (const auto& e : events) {
    if (e.name == "remote.work") {
      EXPECT_EQ(e.trace_id, root.trace_id);
      EXPECT_EQ(e.parent_span_id, wire_span);
      remote_stitched = true;
    }
  }
  EXPECT_TRUE(remote_stitched);
  // The delivery scope is bounded: after the pump the mission loop is back
  // to no context.
  EXPECT_FALSE(tracer.current().active());
}

TEST_F(SwitcherTest, UndecodableEnvelopeCountsAsDecodeReject) {
  // CRC-clean frame whose payload is not a valid envelope (version-skew /
  // schema-bug stand-in): must be a counted drop, not an escaping exception.
  const std::vector<uint8_t> garbage(5, 0xFF);
  switcher.downlink().send(frame_wrap(1, 9, 0, garbage), clock.now());
  pump_until(0.5);
  EXPECT_EQ(switcher.stats().rejected_decode, 1u);
  EXPECT_EQ(switcher.stats().frames_rejected, 1u);
}

TEST_F(SwitcherTest, CorruptBurstEndToEndRejectsScans) {
  // ~1e-2/byte over a ~1.5 KB scan: essentially every frame arrives damaged,
  // the CRC catches all of them, and the subscriber sees nothing.
  net::ChannelOverride ov;
  ov.corrupt_bit_prob = 1e-2;
  channel.set_override(ov);
  auto pub = graph.advertise<msg::LaserScan>("lgv_node", "scan");
  int got = 0;
  graph.subscribe<msg::LaserScan>("cloud_node", "scan",
                                  [&](const msg::LaserScan&) { ++got; });
  msg::LaserScan s;
  s.ranges.assign(360, 1.0f);
  for (int i = 0; i < 5; ++i) {
    pub.publish(s);
    graph.spin();
    pump_until(clock.now() + 0.2);
  }
  EXPECT_EQ(got, 0);
  // Flips land anywhere in the frame, so the cause can read as a bad magic,
  // version or length as well as a CRC mismatch — every one must be caught.
  EXPECT_GE(switcher.stats().frames_rejected, 5u);
  EXPECT_GT(switcher.stats().rejected_crc, 0u);
  EXPECT_GT(switcher.uplink().stats().corrupted, 0u);
}

TEST_F(SwitcherTest, RejectionsSurfaceInTelemetry) {
  telemetry::Telemetry telemetry;
  switcher.set_telemetry(&telemetry);
  switcher.downlink().send({0x00}, clock.now());  // runt
  pump_until(0.5);
  EXPECT_DOUBLE_EQ(
      telemetry.metrics().counter("net_frames_rejected_total", {{"cause", "runt"}}).value(),
      1.0);
  bool saw_instant = false;
  for (const auto& e : telemetry.tracer().events()) {
    if (e.name == "integrity.reject") saw_instant = true;
  }
  EXPECT_TRUE(saw_instant);
  // First rejection fires the flight-recorder trigger (metric-only here —
  // no dump prefix configured).
  EXPECT_EQ(telemetry.metrics()
                .counter("flight_recorder_dumps_total",
                         {{"trigger", "integrity_reject"}})
                .value(),
            1u);
}

}  // namespace
}  // namespace lgv::core
