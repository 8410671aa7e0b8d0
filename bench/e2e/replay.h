// The traced run's layer replay (README.md, "Per-layer metrics"). The traced
// pass records TickState at every scan tick; this pushes those ticks through
// each module's public calls — lidar, AMCL, GMapping, costmap, planner,
// frontier, rollout, message codec, wire framing, middleware and placement —
// on serial ExecutionContext(nullptr, 1) contexts, with one bench-side span
// per call. Every layer runs on every workload, so every layer metric exists
// on every workload; the README says which workloads a layer really matters
// on.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace lgv::e2e {

struct ReplayStats {
  size_t ticks = 0;
  uint64_t graph_payload_copies = 0;  ///< must stay 0: publishes move
  uint64_t frames_failed_check = 0;   ///< must stay 0: nothing corrupts them
};

/// Replay up to kReplayTicks recorded ticks: contiguous windows from the
/// start of each mission, in mission order. Spans go to `spans`, one trace
/// per replayed mission, with ids starting at `first_trace`.
ReplayStats replay_layers(const Workload& w, const std::vector<TickSample>& ticks,
                          uint32_t first_trace, SpanRecorder& spans);

inline constexpr size_t kReplayTicks = 200;
inline constexpr size_t kReplayMinWindow = 50;

}  // namespace lgv::e2e
