#include "replay.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/placement_engine.h"
#include "core/switcher.h"
#include "middleware/graph.h"
#include "perception/amcl.h"
#include "perception/costmap2d.h"
#include "perception/gmapping.h"
#include "planning/frontier.h"
#include "planning/global_planner.h"
#include "sim/lidar.h"

namespace lgv::e2e {

namespace {

// Cadences of the mission loop, in scan ticks (MissionConfig: 0.2 s scans,
// 2 s replans, 1 s adjustment epochs); encodes stand in for migrations.
constexpr size_t kReplanEvery = 10;
constexpr size_t kAdjustEvery = 5;
constexpr size_t kEncodeEvery = 25;

perception::OccupancyGridConfig map_config(const sim::Scenario& scenario) {
  perception::OccupancyGridConfig c;
  c.resolution = scenario.world.frame().resolution;
  return c;
}

perception::GmappingConfig slam_config(const Workload& w) {
  perception::GmappingConfig c;
  c.particles = w.slam_particles;
  return c;
}

/// Every layer of one mission, built the way MissionRunner builds it.
struct Layers {
  sim::Scenario scenario;
  perception::OccupancyGrid known_map;
  sim::Lidar lidar;
  perception::Amcl amcl;
  perception::Gmapping slam;
  perception::Costmap2D costmap;
  planning::GlobalPlanner planner;
  planning::FrontierExplorer frontier;
  control::TrajectoryRollout rollout;
  mw::Graph graph;
  mw::Publisher<msg::LaserScan> scan_pub;
  core::PlacementEngine engine;
  msg::PathMsg path;
  size_t delivered = 0;
  bool slam_committed = false;

  /// `seed` only varies the lidar noise and particle draws between missions.
  Layers(const Workload& w, const TickSample& first, uint64_t seed)
      : scenario(make_scenario(w, first.vehicle)),
        known_map(perception::OccupancyGrid::from_binary(scenario.world.frame(),
                                                         scenario.world.grid(),
                                                         map_config(scenario))),
        lidar({}, seed ^ 0x11d),
        amcl(perception::AmclConfig{}, &known_map, seed ^ 0xa3c1),
        slam(slam_config(w), scenario.world.frame().origin, scenario.world.width_m(),
             scenario.world.height_m(), seed ^ 0x51a),
        costmap(scenario.world.frame().origin, scenario.world.width_m(),
                scenario.world.height_m()),
        engine(core::make_pipeline_dag(),
               core::HostTopology::three_tier(kPoolThreads, kPoolThreads, 20e6 / 8.0, 0.005),
               {}) {
    amcl.initialize(first.robot);
    slam.initialize(first.robot);
    costmap.set_static_map(known_map.to_msg(0.0));
    rollout.set_samples(w.rollout_samples);
    graph.register_node("lidar_driver", platform::Host::kLgv);
    for (const char* node : {"localization", "costmap_gen"}) {
      graph.register_node(node, platform::Host::kLgv);
      graph.subscribe<msg::LaserScan>(node, "scan", [this](const msg::LaserScan& s) {
        delivered += s.ranges.size();
      });
    }
    scan_pub = graph.advertise<msg::LaserScan>("lidar_driver", "scan");
  }

  // The subscriptions hold `this`.
  Layers(const Layers&) = delete;
  Layers& operator=(const Layers&) = delete;
};

/// Round-trip `m` through the wire codec inside one span sized by its bytes.
template <typename T>
void roundtrip(SpanRecorder& spans, uint32_t parent, uint32_t trace, const T& m) {
  ScopedSpan s(spans, SpanName::kMsgRoundtrip, parent, trace);
  const std::vector<uint8_t> bytes = serialize_to_bytes(m);
  const T back = deserialize_from_bytes<T>(bytes);
  spans.set_bytes(s.id(), bytes.size());
  if (back.header.seq != m.header.seq) throw std::runtime_error("codec round trip changed a message");
}

}  // namespace

ReplayStats replay_layers(const Workload& w, const std::vector<TickSample>& ticks,
                          uint32_t first_trace, SpanRecorder& spans) {
  std::map<uint32_t, std::vector<const TickSample*>> by_mission;
  for (const TickSample& t : ticks) by_mission[t.k].push_back(&t);
  const size_t window =
      std::max(kReplayMinWindow, kReplayTicks / std::max<size_t>(1, by_mission.size()));

  ReplayStats stats;
  uint32_t trace = first_trace;
  for (const auto& [k, mission] : by_mission) {
    if (stats.ticks >= kReplayTicks) break;
    const size_t n = std::min({window, mission.size(), kReplayTicks - stats.ticks});
    const uint32_t root = spans.begin(SpanName::kReplayMission, 0, trace);
    Layers L(w, *mission.front(), k);
    uint32_t seq = 0;

    for (size_t i = 0; i < n; ++i) {
      const TickSample& s = *mission[i];
      const uint32_t tick = spans.begin(SpanName::kReplayTick, root, trace);
      platform::ExecutionContext ctx(nullptr, 1);

      msg::LaserScan scan;
      {
        ScopedSpan span(spans, SpanName::kLidarScan, tick, trace);
        scan = L.lidar.scan(L.scenario.world, s.robot, s.t);
      }
      msg::Odometry odom;
      odom.header.stamp = s.t;
      odom.pose = s.robot;
      odom.velocity = s.command;
      {
        ScopedSpan span(spans, SpanName::kAmclUpdate, tick, trace);
        L.amcl.update(odom, scan, ctx);
      }
      {
        ScopedSpan span(spans, SpanName::kGmappingProcess, tick, trace);
        L.slam.process(odom, scan, ctx);
      }
      {
        ScopedSpan span(spans, SpanName::kCostmapUpdate, tick, trace);
        // Exploration refreshes the static layer from the SLAM map first.
        if (w.exploration) L.costmap.set_static_map(L.slam.best_map().to_msg(s.t));
        L.costmap.update(s.estimate, scan);
      }
      if (i % kReplanEvery == 0) {
        if (s.has_goal) {
          ScopedSpan span(spans, SpanName::kGlobalPlan, tick, trace);
          planning::PlanResult plan = L.planner.plan(L.costmap, {s.estimate, s.goal}, ctx);
          if (plan.success) L.path = std::move(plan.path);
        }
        const msg::OccupancyGridMsg slam_map = L.slam.best_map().to_msg(s.t);
        {
          ScopedSpan span(spans, SpanName::kFrontierDetect, tick, trace);
          L.frontier.detect(slam_map, s.estimate, ctx);
        }
        roundtrip(spans, tick, trace, L.costmap.to_msg(s.t));
      }
      if (!L.path.poses.empty()) {
        ScopedSpan span(spans, SpanName::kRolloutCompute, tick, trace);
        L.rollout.compute(L.costmap, L.path, s.estimate, s.command, s.velocity_cap, ctx);
      }
      if (i % kEncodeEvery == 0) {
        ScopedSpan span(spans, SpanName::kGmappingEncode, tick, trace);
        const auto state = L.slam.serialize_state(L.slam_committed
                                                      ? perception::StateEncoding::kDelta
                                                      : perception::StateEncoding::kFull);
        spans.set_bytes(span.id(), state.size());
        if (!L.slam_committed) L.slam.mark_migration_committed();
        L.slam_committed = true;
      }
      roundtrip(spans, tick, trace, scan);

      const std::vector<uint8_t> payload = serialize_to_bytes(scan);
      {
        ScopedSpan span(spans, SpanName::kNetFrame, tick, trace, payload.size());
        const std::vector<uint8_t> frame = core::frame_wrap(0, 1, ++seq, payload, trace, tick, 1);
        if (core::frame_check(frame) != nullptr) ++stats.frames_failed_check;
      }
      {
        msg::LaserScan copy = scan;  // the mission moves its scan into the graph
        ScopedSpan span(spans, SpanName::kGraphPublish, tick, trace);
        L.scan_pub.publish(std::move(copy));
        L.graph.spin();
      }
      if (i % kReplanEvery == 0) {
        ScopedSpan span(spans, SpanName::kPlacementSolve, tick, trace);
        L.engine.solve(std::vector<uint8_t>(L.engine.dag().node_count(), 0));
      } else if (i % kAdjustEvery == 0) {
        ScopedSpan span(spans, SpanName::kPlacementReoptimize, tick, trace);
        L.engine.reoptimize();
      }
      spans.end(tick);
    }
    if (const mw::TopicStats* ts = L.graph.topic_stats("scan")) {
      stats.graph_payload_copies += ts->payload_copies;
    }
    spans.end(root);
    stats.ticks += n;
    ++trace;
  }
  return stats;
}

}  // namespace lgv::e2e
