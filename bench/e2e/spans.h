// Bench-side spans for the traced run (README.md, "Tracing"). Spans are
// recorded by bench_e2e's own code around calls into each module's public
// functions; the program under test is not instrumented. They stay in memory
// and are written as JSONL when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lgv::e2e {

/// Span names, fixed so spans cross the child→parent pipe as plain records.
enum class SpanName : uint16_t {
  kMission,          ///< one traced mission: setup + every step + finalize
  kMissionSetup,     ///< MissionRunner construction + start()
  kScanTick,         ///< one step() that processed a lidar scan
  kReplayMission,    ///< the layer replay of one mission's recorded ticks
  kReplayTick,       ///< one recorded scan tick pushed through every layer
  kLidarScan,
  kAmclUpdate,
  kGmappingProcess,
  kGmappingEncode,
  kCostmapUpdate,
  kRolloutCompute,
  kGlobalPlan,
  kFrontierDetect,
  kMsgRoundtrip,     ///< serialize + deserialize; `bytes` = wire size
  kNetFrame,         ///< frame_wrap + frame_check (CRC32C); `bytes` = payload
  kGraphPublish,     ///< standalone mw::Graph publish + spin, two subscribers
  kPlacementSolve,
  kPlacementReoptimize,
  kCount,
};

const char* span_name(SpanName name);

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  uint32_t trace = 0;   ///< one trace id per mission
  SpanName name = SpanName::kMission;
  uint32_t bytes = 0;   ///< payload size for the per-KB layers, else 0
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Microseconds on the steady clock. CLOCK_MONOTONIC is system-wide, so a
/// forked child's spans share the parent's time base.
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  uint32_t begin(SpanName name, uint32_t parent, uint32_t trace, uint32_t bytes = 0) {
    Span s;
    s.id = static_cast<uint32_t>(spans_.size()) + 1;  // ids are positions + 1
    s.parent = parent;
    s.trace = trace;
    s.name = name;
    s.bytes = bytes;
    s.start_us = now_us();
    spans_.push_back(s);
    return s.id;
  }
  void end(uint32_t id) { spans_[id - 1].end_us = now_us(); }
  void set_bytes(uint32_t id, size_t bytes) { spans_[id - 1].bytes = static_cast<uint32_t>(bytes); }

  /// Append spans recorded elsewhere (a child process numbering from 1),
  /// shifting their ids past the ones held here.
  void append(const std::vector<Span>& other);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, SpanName name, uint32_t parent, uint32_t trace,
             uint32_t bytes = 0)
      : rec_(rec), id_(rec.begin(name, parent, trace, bytes)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint32_t id_;
};

/// Self time of every span (µs): its duration minus the time its direct
/// children cover. Children of one parent never overlap here (every span is
/// recorded on one thread), so the sum of their durations is that cover.
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Spans whose parent id names no earlier span of the same trace.
size_t dangling_parents(const std::vector<Span>& spans);

/// One JSON object per line.
bool write_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace lgv::e2e
