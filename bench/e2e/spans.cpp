#include "spans.h"

#include <cstdio>

namespace lgv::e2e {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kMission: return "mission";
    case SpanName::kMissionSetup: return "mission.setup";
    case SpanName::kScanTick: return "mission.scan_tick";
    case SpanName::kReplayMission: return "replay.mission";
    case SpanName::kReplayTick: return "replay.tick";
    case SpanName::kLidarScan: return "sim.lidar.scan";
    case SpanName::kAmclUpdate: return "perception.amcl.update";
    case SpanName::kGmappingProcess: return "perception.gmapping.process";
    case SpanName::kGmappingEncode: return "perception.gmapping.encode";
    case SpanName::kCostmapUpdate: return "perception.costmap.update";
    case SpanName::kRolloutCompute: return "control.rollout.compute";
    case SpanName::kGlobalPlan: return "planning.global.plan";
    case SpanName::kFrontierDetect: return "planning.frontier.detect";
    case SpanName::kMsgRoundtrip: return "msg.roundtrip";
    case SpanName::kNetFrame: return "net.frame";
    case SpanName::kGraphPublish: return "middleware.graph.publish";
    case SpanName::kPlacementSolve: return "core.placement.solve";
    case SpanName::kPlacementReoptimize: return "core.placement.reoptimize";
    case SpanName::kCount: break;
  }
  return "?";
}

void SpanRecorder::append(const std::vector<Span>& other) {
  const auto base = static_cast<uint32_t>(spans_.size());
  for (Span s : other) {
    s.id += base;
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_us - spans[i].start_us;
  for (const Span& s : spans) {
    if (s.parent != 0 && s.parent <= spans.size()) {
      self[s.parent - 1] -= s.end_us - s.start_us;
    }
  }
  return self;
}

size_t dangling_parents(const std::vector<Span>& spans) {
  size_t n = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Ids are positions + 1, a parent opens before its children, and a
    // child belongs to its parent's trace.
    if (s.id != i + 1) {
      ++n;
    } else if (s.parent != 0 &&
               (s.parent >= s.id || spans[s.parent - 1].trace != s.trace)) {
      ++n;
    }
  }
  return n;
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"trace\": %u, \"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"bytes\": %u}\n",
                 s.trace, s.id, s.parent, span_name(s.name), s.start_us, s.end_us,
                 s.bytes);
  }
  return std::fclose(f) == 0;
}

}  // namespace lgv::e2e
