#!/usr/bin/env bash
# Run a short offloaded mission with telemetry enabled and validate the two
# artifacts the telemetry subsystem produces:
#
#   mission_trace.json    Chrome trace-event JSON (Perfetto-loadable)
#   mission_metrics.json  metric series keyed `family{label=value}`
#
# Fails (non-zero exit) if either artifact is missing/unparseable, if the
# trace lacks the expected lanes and decision markers, or if any required
# metric family is absent. With --tsan, also builds the telemetry, thread-pool
# and fleet (shared WorkerPool, pool failover) tests under ThreadSanitizer
# (LGV_SANITIZE=thread) and runs them.
#
# Usage: tools/run_mission_trace.sh [build-dir] [--tsan]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
RUN_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
fi
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"  # absolute: the demo runs from a temp dir
cmake --build "$BUILD_DIR" --target mission_trace_demo -j

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
(cd "$OUT_DIR" && "$BUILD_DIR/examples/mission_trace_demo")

python3 - "$OUT_DIR/mission_trace.json" "$OUT_DIR/mission_metrics.json" <<'EOF'
import json, sys

trace_path, metrics_path = sys.argv[1], sys.argv[2]

with open(trace_path) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"

process_names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
spans = [e for e in events if e["ph"] == "X"]
names = {e["name"] for e in events}

required_lanes = {"lgv", "edge_gateway", "decisions"}
missing = required_lanes - process_names
assert not missing, f"missing trace lanes: {missing} (have {process_names})"
assert spans, "no complete ('X') spans — node executions not traced"
assert "alg1.initial_placement" in names, "no Algorithm 1 decision marker"
assert "mw.publish" in names, "no middleware publish instants"

with open(metrics_path) as f:
    metrics = json.load(f)
families = {s["family"] for s in metrics.values()}

required_families = {
    "mw_published_total", "mw_delivered_total", "mw_dropped_total",
    "mw_queue_depth", "mw_message_bytes",
    "net_sent_total", "net_oneway_ms", "net_rtt_ms",
    "pool_tasks_total", "pool_task_run_us",
    "node_invocations_total", "node_exec_seconds",
    "alg_decisions_total", "alg2_bandwidth_hz",
}
missing = required_families - families
assert not missing, f"missing metric families: {sorted(missing)}"

print(f"trace OK: {len(events)} events, {len(spans)} spans, "
      f"lanes {sorted(process_names)}")
print(f"metrics OK: {len(metrics)} series, {len(families)} families "
      f"(all {len(required_families)} required families present)")
EOF

if [[ "$RUN_TSAN" == "1" ]]; then
  TSAN_DIR="$REPO_ROOT/build-tsan"
  cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DLGV_SANITIZE=thread
  cmake --build "$TSAN_DIR" --target lgv_tests -j
  "$TSAN_DIR/tests/lgv_tests" \
    --gtest_filter='Telemetry*:Tracer*:Metrics*:Counter*:Gauge*:Histogram*:ThreadPool*:Fleet*:WorkerPool*:PoolFailover*'
  echo "TSan pass OK"
fi

echo "mission trace validation PASSED"
